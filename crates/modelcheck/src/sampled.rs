//! The sampled tier: randomized deviation profiles with seed-pinned
//! reproduction, greedy shrinking and rational hill-climbing.
//!
//! The enumerated sweeps ([`crate::scenarios`]) cover the closed
//! `stop_after × {Eager, Procrastinate} × faults` space exhaustively, but
//! two deviation axes are products too large to enumerate: per-step legal
//! delay vectors ([`Timing::Delay`] — any tick within Δ of the trigger and
//! strictly before the step deadline, independently per step) and
//! variable-length crash outages ([`Fault::Outage`] — ¼Δ through 4Δ in
//! quarter-Δ increments). This module *samples* those axes instead, for
//! every protocol that implements [`Checked`]:
//!
//! * [`SampledSweep`] is a [`ScenarioGen`] whose scenario `i` is drawn from
//!   a deterministic RNG keyed only on `(family_seed, i)` — never on thread
//!   count or chunk size — so a sampled sweep keeps the engine's
//!   bit-for-bit determinism contract, and any violating sample is
//!   reproducible forever from the `(seed, index)` pair printed in its
//!   scenario label. Samples run through the same recorded prefixes as
//!   the enumerated families, so each restores the post-setup world
//!   instead of setting the protocol up again.
//! * [`SampledSweep::shrink`] greedily minimizes a violating sample —
//!   dropping deviators, clearing faults, halving outages, zeroing delay
//!   entries — while preserving at least one of the original
//!   `(party, property)` verdicts, and renders the minimal profile as a
//!   copy-pasteable regression test ([`ShrunkViolation::regression_test`]).
//! * [`SampledSweep::climb`] hill-climbs one deviator's strategy toward
//!   payoff-maximizing deviations with [`marketsim::rational::best_response`],
//!   reporting the worst compliant-party hedge margin the rational search
//!   could reach. For the hedged protocols that margin stays ≥ 0 (the
//!   theorem has teeth against rational adversaries, not just the sampled
//!   ones); for the unhedged base swap it goes negative.
//!
//! Sampling gives statistical coverage, not proof: a clean sampled summary
//! says no violation was found in `samples` independent draws from the
//! documented space ([`SampledSweep::sampled_space`]), while the enumerated
//! tier's clean summary remains exhaustive over its smaller space.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use chainsim::{ChainId, PartyId, ReorgEvent, ReorgPolicy, World};
use marketsim::rational::best_response;
use protocols::auction::AuctionConfig;
use protocols::bootstrap::BootstrapConfig;
use protocols::deal::DealConfig;
use protocols::script::{self, DelayVector, Fault, Strategy, Timing, MAX_DELAY_STEPS};
use protocols::two_party::{self, SwapRealism, TwoPartyConfig, TwoPartySwap, ALICE, BOB};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::engine::{FamilyScratch, ScenarioGen};
use crate::scenarios::{auction_variants, deviators, judge, Checked};
use crate::Violation;

/// Derives the per-sample RNG seed from the family seed and sample index:
/// a SplitMix64 finalizer over their golden-ratio mix. Depends on nothing
/// else, so sample `i` of a family is the same profile on every machine
/// and thread count — the reproduction key a violation report prints is
/// just this pair.
fn sample_seed(family_seed: u64, index: usize) -> u64 {
    let mut z = family_seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Draws a timing profile: eager and last-instant endpoints each with
/// probability ⅛, otherwise a fresh per-step delay vector with entries
/// uniform over `0..=Δ` (the whole legal window — larger delays are
/// clamped to the Procrastinate tick anyway). A drawn zero vector is
/// canonicalized to [`Timing::Eager`] so profile keys stay unique.
fn sample_timing(rng: &mut StdRng, steps: usize, delta_blocks: u64) -> Timing {
    match rng.gen_range(0..8u32) {
        0 => Timing::Eager,
        1 => Timing::Procrastinate,
        _ => {
            let mut vector = DelayVector::ZERO;
            for step in 0..steps.min(MAX_DELAY_STEPS) {
                vector.set(step, rng.gen_range(0..delta_blocks + 1) as u8);
            }
            if vector.is_zero() {
                Timing::Eager
            } else {
                Timing::Delay(vector)
            }
        }
    }
}

/// Draws one party's strategy. Conforming-only sampling draws the timing
/// axis alone; otherwise stop budgets and faults (including variable
/// outages) ride along, with fault steps confined to steps the party
/// actually reaches.
fn sample_strategy(
    rng: &mut StdRng,
    steps: usize,
    delta_blocks: u64,
    conforming_only: bool,
) -> Strategy {
    let timing = sample_timing(rng, steps, delta_blocks);
    if conforming_only {
        return Strategy { stop_after: None, timing, fault: Fault::None };
    }
    let stop_after = if rng.gen_bool(0.25) { Some(rng.gen_range(0..steps)) } else { None };
    let reachable = stop_after.unwrap_or(steps);
    let fault = if reachable == 0 {
        Fault::None
    } else {
        match rng.gen_range(0..4u32) {
            0 => Fault::None,
            1 => Fault::Garbage { step: rng.gen_range(0..reachable) },
            2 => Fault::Crash { step: rng.gen_range(0..reachable) },
            _ => Fault::Outage {
                step: rng.gen_range(0..reachable),
                quarters: rng.gen_range(1..17u8),
            },
        }
    };
    Strategy { stop_after, timing, fault }
}

/// Draws a joint deviation profile over `players` (each with its script
/// length): a uniform deviator count in `1..=max_deviators`, a uniform
/// subset of that many parties (partial Fisher–Yates), and an independent
/// strategy per chosen party. Parties whose draw comes out
/// canonical-compliant are simply absent, so a sample can also be the
/// all-compliant profile. This is [`Checked::draw`]'s default.
pub(crate) fn sample_profile(
    rng: &mut StdRng,
    players: &[(PartyId, usize)],
    delta_blocks: u64,
    max_deviators: usize,
    conforming_only: bool,
) -> BTreeMap<PartyId, Strategy> {
    let n = players.len();
    let deviators = 1 + rng.gen_range(0..max_deviators.min(n));
    let mut order: Vec<usize> = (0..n).collect();
    for i in 0..deviators {
        let j = i + rng.gen_range(0..n - i);
        order.swap(i, j);
    }
    let mut profile = BTreeMap::new();
    for &slot in &order[..deviators] {
        let (party, steps) = players[slot];
        let strategy = sample_strategy(rng, steps, delta_blocks, conforming_only);
        if strategy != Strategy::compliant() {
            profile.insert(party, strategy);
        }
    }
    profile
}

/// The deepest reorg the sampled realism axis draws; both chains of a
/// reorg family run a finality window of this depth. A family whose config
/// carries a `finality_margin` of at least
/// [`min_finality_margin`](two_party::min_finality_margin)`(MAX_REORG_DEPTH, Δ)`
/// holds.
///
/// The smaller margin `MAX_REORG_DEPTH − 1` covers compliant runs only: at
/// `finality_margin: 1` and Δ = 2, sample 7904 of seed `0xdaa66d2c6feb2247`
/// leaves compliant Bob unhedged when Alice's outage pushes her premium to
/// its deadline (pinned in `tests/sampled.rs` as
/// `sampled_regression_seed_daa66d2c6feb2247_sample_7904`).
pub const MAX_REORG_DEPTH: u32 = 2;

/// Draws the chain-realism overlay for one reorg-family sample: both
/// chains at the maximum finality depth, plus (with probability ⅞) one
/// redelivering reorg with a uniform chain, round within the run horizon
/// and depth in `1..=MAX_REORG_DEPTH`. Only [`ReorgPolicy::Redeliver`] is
/// sampled: a call-dropping reorg silently deletes a compliant party's
/// action, which no deadline schedule can defend against — that axis is
/// covered by the explicit drop-policy pins, not the theorem families.
fn sample_realism(rng: &mut StdRng, horizon: u64) -> SwapRealism {
    let mut realism = SwapRealism {
        apricot_depth: MAX_REORG_DEPTH,
        banana_depth: MAX_REORG_DEPTH,
        reorgs: Vec::new(),
    };
    if rng.gen_range(0..8u32) != 0 {
        realism.reorgs.push(ReorgEvent {
            chain: ChainId(rng.gen_range(0..2u32)),
            at_round: rng.gen_range(1..horizon),
            depth: rng.gen_range(1..MAX_REORG_DEPTH + 1),
            policy: ReorgPolicy::Redeliver,
        });
    }
    realism
}

/// One decoded sampled scenario — the reproducible object a `(seed, index)`
/// pair re-derives, and the unit the shrinker minimizes. Each protocol
/// builds its own kind ([`Checked::scenario`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SampledScenario {
    /// A two-party swap joint strategy.
    TwoParty {
        /// Alice's strategy.
        alice: Strategy,
        /// Bob's strategy.
        bob: Strategy,
    },
    /// A two-party swap joint strategy under a chain-realism overlay
    /// (finality lag plus a sampled reorg schedule).
    TwoPartyReorg {
        /// Alice's strategy.
        alice: Strategy,
        /// Bob's strategy.
        bob: Strategy,
        /// The sampled finality/reorg overlay.
        realism: SwapRealism,
    },
    /// A deviators-only profile of a protocol with one variant: a
    /// deal-engine protocol (multi-party swap or broker) or a bootstrap
    /// cascade.
    Deal {
        /// The deviating parties' strategies (absent parties are compliant).
        profile: BTreeMap<PartyId, Strategy>,
    },
    /// An auction scenario: a behaviour index into
    /// [`crate::scenarios::AuctionSweep`]'s auctioneer behaviours plus a
    /// deviators-only profile.
    Auction {
        /// Index into the auctioneer-behaviour table (0 = declare high
        /// bidder, 1 = declare low bidder, 2 = abandon).
        behaviour: usize,
        /// The deviating parties' strategies.
        profile: BTreeMap<PartyId, Strategy>,
    },
}

impl SampledScenario {
    /// The scenario's variant, deviators-only profile and realism overlay.
    fn parts(&self) -> (usize, BTreeMap<PartyId, Strategy>, Option<SwapRealism>) {
        let pair = |alice: Strategy, bob: Strategy| {
            deviators([ALICE, BOB], &two_party::profile(alice, bob))
        };
        match self {
            SampledScenario::TwoParty { alice, bob } => (0, pair(*alice, *bob), None),
            SampledScenario::TwoPartyReorg { alice, bob, realism } => {
                (0, pair(*alice, *bob), Some(realism.clone()))
            }
            SampledScenario::Deal { profile } => (0, profile.clone(), None),
            SampledScenario::Auction { behaviour, profile } => (*behaviour, profile.clone(), None),
        }
    }
}

/// A [`ScenarioGen`] family of `samples` randomized deviation profiles of
/// one [`Checked`] protocol, drawn from a seed-pinned RNG; see the module
/// docs for the guarantees.
#[derive(Clone, Debug)]
pub struct SampledSweep<P> {
    name: String,
    /// The protocol under each variant (the auction's auctioneer
    /// behaviours); with several, a sample draws one uniformly first.
    variants: Vec<P>,
    seed: u64,
    samples: usize,
    /// How many parties one sample may let deviate.
    max_deviators: usize,
    /// Whether samples draw the timing axis alone.
    conforming_only: bool,
    /// Reorg families only: puts a sample's drawn chain-realism overlay on
    /// the protocol.
    overlay: Option<fn(P, SwapRealism) -> P>,
}

impl SampledSweep<TwoPartySwap> {
    /// Samples the hedged two-party swap (§5.2) over the full
    /// `stop × delay-vector/outage × faults` axes with up to two
    /// simultaneous deviators. Expected to hold.
    pub fn hedged_two_party(config: TwoPartyConfig, seed: u64, samples: usize) -> Self {
        let swap = TwoPartySwap::hedged(config);
        Self::of("sampled hedged two-party swap", vec![swap], seed, samples, 2, false)
    }

    /// Samples the hedged swap under chain realism: both chains run a
    /// [`MAX_REORG_DEPTH`]-deep finality window and each sample draws,
    /// besides a full-axis strategy profile, up to one redelivering reorg
    /// (chain × round × depth). From a
    /// [`TwoPartyConfig::finality_margin`] of
    /// [`min_finality_margin`](two_party::min_finality_margin)`(MAX_REORG_DEPTH, Δ)`
    /// up, the padded contract deadlines absorb every re-delivery; with a
    /// zero margin a reorg can push a conforming party's last-tick call past
    /// its unpadded deadline — the documented sore-loser-by-reorg violation
    /// the rendered-regression tests pin. Between the two, at
    /// `MAX_REORG_DEPTH − 1`, a deviator's outage can still break the
    /// compliant party's hedge; see [`MAX_REORG_DEPTH`].
    ///
    /// Each sample's overlay makes a protocol of its own, with nothing to
    /// share a recorded prefix with, so every sample runs from scratch.
    pub fn hedged_two_party_reorgs(config: TwoPartyConfig, seed: u64, samples: usize) -> Self {
        let name = format!(
            "sampled hedged two-party swap under reorgs (margin {})",
            config.finality_margin
        );
        let swap = TwoPartySwap::hedged(config);
        SampledSweep {
            overlay: Some(TwoPartySwap::with_realism),
            ..Self::of(name, vec![swap], seed, samples, 2, false)
        }
    }

    /// Samples the *base* (unhedged) swap over conforming timing profiles
    /// with a single laggard — one sampled party follows the script but
    /// chooses when within each legal window to act, against an eager
    /// compliant counterparty. One Δ-bounded laggard is within the base
    /// timelock schedule's tolerance, so this family is expected to hold —
    /// which is exactly what makes it the canary family: a reintroduced
    /// timing bug turns some conforming delay vector into a violation the
    /// sampler must find and shrink. (*Two* simultaneous laggards can
    /// consume the absolute timelocks' whole slack and strand both
    /// principals; that both-late run is a known hedged violation of the
    /// unhedged protocol, already surfaced by the enumerated tier, not a
    /// canary.)
    pub fn base_two_party(config: TwoPartyConfig, seed: u64, samples: usize) -> Self {
        let name = "sampled base two-party swap (conforming timings)";
        // Conforming-only (canary) sampling stays single-laggard: the base
        // timelock schedule does not tolerate two.
        Self::of(name, vec![TwoPartySwap::base(config)], seed, samples, 1, true)
    }
}

impl SampledSweep<DealConfig> {
    /// Samples a deal-engine configuration (multi-party swap or brokered
    /// sale) with up to two simultaneous deviators.
    pub fn deal(name: impl Into<String>, config: DealConfig, seed: u64, samples: usize) -> Self {
        Self::of(format!("sampled {}", name.into()), vec![config], seed, samples, 2, false)
    }
}

impl SampledSweep<AuctionConfig> {
    /// Samples the auction (§9): a uniform auctioneer behaviour plus one
    /// deviating party per sample (the enumerated sweep's budget, extended
    /// to the delay/outage axes).
    pub fn auction(config: AuctionConfig, seed: u64, samples: usize) -> Self {
        Self::of("sampled auction", auction_variants(&config), seed, samples, 1, false)
    }
}

/// The sampled bootstrap-cascade family: each sample draws one
/// [`BootstrapDeviation`](protocols::bootstrap::BootstrapDeviation)
/// (party × level × kind, or none with probability ⅛) from the seed-pinned
/// RNG. The deviation space here is small and atomic, but sampling it keeps
/// the whole sampled tier's determinism and reproduction story uniform
/// across every protocol family.
pub type SampledBootstrap = SampledSweep<BootstrapConfig>;

impl SampledSweep<BootstrapConfig> {
    /// Samples the cascade of `a` against `b` at premium ratio `ratio`
    /// with `rounds` premium rounds.
    pub fn new(a: u128, b: u128, ratio: u128, rounds: u32, seed: u64, samples: usize) -> Self {
        let name = format!("sampled bootstrap a={a}, b={b}, ratio={ratio}, rounds={rounds}");
        let config = BootstrapConfig::new(a, b, ratio, rounds);
        Self::of(name, vec![config], seed, samples, 1, false)
    }
}

impl<P: Checked> SampledSweep<P> {
    fn of(
        name: impl Into<String>,
        variants: Vec<P>,
        seed: u64,
        samples: usize,
        max_deviators: usize,
        conforming_only: bool,
    ) -> Self {
        SampledSweep {
            name: name.into(),
            variants,
            seed,
            samples,
            max_deviators,
            conforming_only,
            overlay: None,
        }
    }

    /// The family seed samples are derived from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The number of samples this family draws.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Sample `index`'s variant, profile and realism overlay. The RNG draws
    /// the variant first (when there are several), then the profile, then
    /// the overlay.
    fn draw_at(&self, index: usize) -> (usize, BTreeMap<PartyId, Strategy>, Option<SwapRealism>) {
        let mut rng = StdRng::seed_from_u64(sample_seed(self.seed, index));
        let variant =
            if self.variants.len() > 1 { rng.gen_range(0..self.variants.len()) } else { 0 };
        let protocol = &self.variants[variant];
        let profile = protocol.draw(&mut rng, self.max_deviators, self.conforming_only);
        let realism = self.overlay.map(|_| sample_realism(&mut rng, protocol.max_rounds()));
        (variant, profile, realism)
    }

    /// Re-derives sample `index`'s scenario from the family seed — the
    /// reproduction entry point: same `(seed, index)`, same scenario,
    /// forever and everywhere.
    pub fn scenario_at(&self, index: usize) -> SampledScenario {
        let (variant, profile, realism) = self.draw_at(index);
        self.variants[variant].scenario(variant, profile, realism)
    }

    /// Runs one scenario in a fresh world and judges it with the exact
    /// judges the enumerated tier uses. This is the entry point shrunken
    /// regression tests call.
    pub fn check_scenario(&self, scenario: &SampledScenario) -> Vec<Violation> {
        self.check_scenario_in(scenario, &mut World::new(1), &mut FamilyScratch::default())
    }

    /// [`SampledSweep::check_scenario`] through a caller's world and family
    /// slot, so repeated checks share one recorded prefix.
    fn check_scenario_in(
        &self,
        scenario: &SampledScenario,
        world: &mut World,
        cache: &mut FamilyScratch,
    ) -> Vec<Violation> {
        let (variant, profile, realism) = scenario.parts();
        let key = || self.name.clone();
        self.judge_in(variant, &profile, realism.as_ref(), key, world, cache)
    }

    /// The first violating sample index below `limit` (capped at the
    /// family's sample budget), if any. The canary suite uses this with a
    /// pinned seed and budget to prove detection. Samples run the way a
    /// sweep worker runs them: through one world and one family slot.
    pub fn find_violation(&self, limit: usize) -> Option<usize> {
        let (mut world, mut cache) = (World::new(1), FamilyScratch::default());
        (0..limit.min(self.samples))
            .find(|&index| !self.check(index, &mut world, &mut cache).is_empty())
    }

    /// Greedily minimizes the violating sample at `index` (`None` if that
    /// sample is clean): deviators are dropped, faults cleared, outages
    /// halved, stop budgets lifted and delay entries zeroed/halved as long
    /// as some original `(party, property)` verdict is preserved. The
    /// result is a locally minimal still-violating profile plus its
    /// rendered regression test. Every candidate runs through one world and
    /// one family slot.
    pub fn shrink(&self, index: usize) -> Option<ShrunkViolation> {
        let (mut world, mut cache) = (World::new(1), FamilyScratch::default());
        let mut check =
            |scenario: &SampledScenario| self.check_scenario_in(scenario, &mut world, &mut cache);
        let original = self.scenario_at(index);
        let original_violations = check(&original);
        if original_violations.is_empty() {
            return None;
        }
        let targets: BTreeSet<(PartyId, &'static str)> =
            original_violations.iter().map(|v| (v.party, v.property)).collect();
        let (variant, profile, realism) = original.parts();
        let rebuild = |profile: &BTreeMap<PartyId, Strategy>, realism: &Option<SwapRealism>| {
            self.variants[variant].scenario(variant, profile.clone(), realism.clone())
        };
        let mut violates = |scenario: SampledScenario| {
            check(&scenario).iter().any(|v| targets.contains(&(v.party, v.property)))
        };
        // Reorg scenarios shrink their realism overlay first (drop the
        // reorg, then reduce its depth), so the rendered regression carries
        // the smallest reorg that still witnesses the violation.
        let realism = realism.map(|realism| {
            shrink_realism(&realism, |candidate| {
                violates(rebuild(&profile, &Some(candidate.clone())))
            })
        });
        let minimal_profile =
            shrink_profile(&profile, |candidate| violates(rebuild(candidate, &realism)));
        let minimal = rebuild(&minimal_profile, &realism);
        let violations = check(&minimal);
        Some(ShrunkViolation {
            family: self.name.clone(),
            family_seed: self.seed,
            sample_index: index,
            original,
            minimal,
            violations,
        })
    }

    /// Hill-climbs `deviator`'s strategy toward its payoff-maximizing
    /// deviation with [`best_response`] (ties broken toward *hurting* the
    /// compliant side, so payoff-indifferent walk-aways are found), and
    /// reports the worst compliant-party hedge margin the search reached.
    /// `None` for a party that does not play, for protocols without a
    /// per-party margin (auctions, bootstrap cascades) and for reorg
    /// families, where the adversary is the environment, not a strategy.
    pub fn climb(&self, deviator: PartyId, seed: u64, budget: usize) -> Option<RationalClimb> {
        if self.overlay.is_some() {
            return None;
        }
        let protocol = &self.variants[0];
        let (_, steps) = protocol.players().into_iter().find(|&(party, _)| party == deviator)?;
        let mut world = World::new(1);
        let mut evaluate = |strategy: &Strategy| {
            let profile = |party| if party == deviator { *strategy } else { Strategy::compliant() };
            protocol.climb_score(&protocol.run(&profile, &mut world), deviator)
        };
        // Protocols without a per-party margin do not climb.
        evaluate(&Strategy::compliant())?;
        let outcome = best_response(
            Strategy::compliant(),
            seed,
            budget,
            |strategy| {
                let (payoff, margin) = evaluate(strategy).expect("the protocol scores climbs");
                payoff * SPITE_SCALE - margin
            },
            |strategy, rng| mutate_strategy(*strategy, rng, steps, protocol.delta()),
        );
        let (deviator_payoff, compliant_margin) = evaluate(&outcome.best)?;
        Some(RationalClimb {
            family: self.name.clone(),
            deviator,
            best_strategy: outcome.best,
            deviator_payoff,
            compliant_margin,
            evaluations: outcome.evaluations,
            improvements: outcome.improvements,
        })
    }

    /// The size of the documented sampling space, as a float (these spaces
    /// overflow `usize` on long scripts): per party,
    /// `stops × timings × faults` with `(Δ+1)^steps + 1` timing profiles
    /// and `1 + 18·steps` fault profiles (garbage, fixed crash and 16
    /// outage lengths per step), combined over every deviator subset within
    /// the family's budget ([`Checked::sampled_space`]), times the
    /// variants and the realism axis. Conforming-only families document the
    /// timing axis alone.
    pub fn sampled_space(&self) -> f64 {
        let protocol = &self.variants[0];
        let space = self.variants.len() as f64
            * protocol.sampled_space(self.max_deviators, self.conforming_only);
        match self.overlay {
            // The realism axis: no reorg, or one redelivering reorg with a
            // free chain (2), round (1..horizon) and depth.
            Some(_) => {
                space
                    * (1.0 + 2.0 * f64::from(MAX_REORG_DEPTH) * (protocol.max_rounds() - 1) as f64)
            }
            None => space,
        }
    }

    /// `samples / sampled_space()`: the fraction of the documented space
    /// this family's draws cover (draws are independent, i.e. with
    /// replacement, so this is an upper bound on distinct coverage).
    pub fn coverage(&self) -> f64 {
        self.samples as f64 / self.sampled_space()
    }

    /// Runs `profile` of variant `variant` through the worker's family
    /// slot (resumed from the shared prefix, or from scratch for a replay
    /// oracle or under a realism overlay) and judges the report with the
    /// enumerated tier's judges. A violation's label is `key()`, the
    /// protocol's rendering of the profile and the overlay's reorgs.
    fn judge_in(
        &self,
        variant: usize,
        profile: &BTreeMap<PartyId, Strategy>,
        realism: Option<&SwapRealism>,
        key: impl Fn() -> String,
        scratch: &mut World,
        cache: &mut FamilyScratch,
    ) -> Vec<Violation> {
        let protocol = &self.variants[variant];
        let profile = &script::profile(profile);
        let report = match realism {
            // Always from scratch: the overlay makes a protocol of its
            // own, which no other sample shares a prefix with.
            Some(realism) => {
                let overlay = self.overlay.expect("only reorg families draw realism overlays");
                overlay(protocol.clone(), realism.clone()).run(profile, scratch)
            }
            None => cache.run(protocol, variant, profile, scratch),
        };
        judge(protocol, &report, profile, || {
            let mut label = key() + &protocol.label(profile);
            for reorg in realism.iter().flat_map(|realism| &realism.reorgs) {
                let _ = write!(
                    label,
                    ", reorg(chain={}, round={}, depth={})",
                    reorg.chain.0, reorg.at_round, reorg.depth
                );
            }
            label
        })
    }
}

impl<P: Checked> ScenarioGen for SampledSweep<P> {
    fn family(&self) -> String {
        self.name.clone()
    }

    fn total(&self) -> usize {
        self.samples
    }

    fn check(
        &self,
        index: usize,
        scratch: &mut World,
        cache: &mut FamilyScratch,
    ) -> Vec<Violation> {
        let (variant, profile, realism) = self.draw_at(index);
        // The label carries the reproduction key: re-deriving this exact
        // scenario needs only the family constructor, the seed and the
        // sample index (see `scenario_at`).
        let key = || format!("{} [seed={:#x}, sample={index}]", self.name, self.seed);
        self.judge_in(variant, &profile, realism.as_ref(), key, scratch, cache)
    }
}

/// The fixed deviator-payoff weight in climb scores: payoffs dominate, the
/// compliant side's margin only breaks ties (a rational adversary prefers
/// the spiteful deviation among equally profitable ones — which is what
/// surfaces the base protocol's free sore-loser attack).
const SPITE_SCALE: i128 = 1_000_000;

/// The best rational deviation a [`SampledSweep::climb`] found.
#[derive(Clone, Debug)]
pub struct RationalClimb {
    /// The family climbed.
    pub family: String,
    /// The deviating party the climb optimized for.
    pub deviator: PartyId,
    /// The payoff-maximizing strategy found.
    pub best_strategy: Strategy,
    /// The deviator's total payoff under `best_strategy` (over all assets).
    pub deviator_payoff: i128,
    /// The worst compliant-party hedge margin under `best_strategy`:
    /// premium payoff minus owed compensation (and shortfall against the
    /// expected counter-asset, for completed swaps). Non-negative means the
    /// hedged guarantee held against the best deviation the rational search
    /// found; the base protocol goes negative.
    pub compliant_margin: i128,
    /// Score evaluations performed.
    pub evaluations: usize,
    /// Strict improvements accepted.
    pub improvements: usize,
}

/// One climb proposal: mutate a single axis of the incumbent — stop
/// budget, one delay-vector entry (Procrastinate first concretizes to the
/// maxed vector), the fault profile, or a timing-endpoint reset.
fn mutate_strategy(
    current: Strategy,
    rng: &mut StdRng,
    steps: usize,
    delta_blocks: u64,
) -> Strategy {
    let mut next = current;
    match rng.gen_range(0..4u32) {
        0 => {
            next.stop_after = if rng.gen_bool(0.5) { None } else { Some(rng.gen_range(0..steps)) };
        }
        1 => {
            let mut vector = match next.timing {
                Timing::Delay(vector) => vector,
                Timing::Eager => DelayVector::ZERO,
                Timing::Procrastinate => DelayVector([u8::MAX; MAX_DELAY_STEPS]),
            };
            let step = rng.gen_range(0..steps.min(MAX_DELAY_STEPS));
            vector.set(step, rng.gen_range(0..delta_blocks + 2).min(u8::MAX as u64) as u8);
            next.timing = if vector.is_zero() { Timing::Eager } else { Timing::Delay(vector) };
        }
        2 => {
            next.fault = match rng.gen_range(0..4u32) {
                0 => Fault::None,
                1 => Fault::Garbage { step: rng.gen_range(0..steps) },
                2 => Fault::Crash { step: rng.gen_range(0..steps) },
                _ => Fault::Outage {
                    step: rng.gen_range(0..steps),
                    quarters: rng.gen_range(1..17u8),
                },
            };
        }
        _ => {
            next.timing = if rng.gen_bool(0.5) { Timing::Eager } else { Timing::Procrastinate };
        }
    }
    next
}

/// Per-party sampled domain size; see [`SampledSweep::sampled_space`].
pub(crate) fn per_party_domain(steps: usize, delta_blocks: u64, conforming_only: bool) -> f64 {
    let timings = ((delta_blocks + 1) as f64).powi(steps as i32) + 1.0;
    if conforming_only {
        return timings;
    }
    let stops = (1 + steps) as f64;
    let faults = 1.0 + 18.0 * steps as f64;
    stops * timings * faults
}

/// Profiles with at most `max_deviators` of `n` parties playing one of the
/// `per_party - 1` non-compliant strategies — the same closed form as
/// [`crate::scenarios::bounded_profile_count`], in floats.
pub(crate) fn profile_space(n: usize, per_party: f64, max_deviators: usize) -> f64 {
    (0..=max_deviators.min(n)).map(|j| binomial_f64(n, j) * (per_party - 1.0).powi(j as i32)).sum()
}

fn binomial_f64(n: usize, k: usize) -> f64 {
    (0..k).map(|i| (n - i) as f64 / (i + 1) as f64).product()
}

/// Greedily minimizes a violating profile under a caller-supplied
/// still-violates predicate. Every accepted step strictly shrinks the
/// profile (fewer deviators) or strictly decreases a per-strategy weight
/// (cleared fault, shorter outage, lifted stop, smaller delay entries), so
/// the loop terminates at a locally minimal profile: removing any deviator
/// or applying any single simplification no longer violates.
pub fn shrink_profile(
    original: &BTreeMap<PartyId, Strategy>,
    mut violates: impl FnMut(&BTreeMap<PartyId, Strategy>) -> bool,
) -> BTreeMap<PartyId, Strategy> {
    let mut current = original.clone();
    loop {
        let mut improved = false;
        for party in current.keys().copied().collect::<Vec<_>>() {
            let mut dropped = current.clone();
            dropped.remove(&party);
            if violates(&dropped) {
                current = dropped;
                improved = true;
                continue;
            }
            // Fixpoint the per-party simplifications before moving on.
            let mut simplified = true;
            while simplified {
                simplified = false;
                for simpler in simplifications(current[&party]) {
                    let mut candidate = current.clone();
                    candidate.insert(party, simpler);
                    if violates(&candidate) {
                        current = candidate;
                        simplified = true;
                        improved = true;
                        break;
                    }
                }
            }
        }
        if !improved {
            return current;
        }
    }
}

/// Greedily minimizes the realism overlay of a violating reorg sample
/// under a caller-supplied still-violates predicate: reorgs are dropped
/// outright, then surviving depths decremented, as long as the verdict is
/// preserved. Finality depths are left as drawn — with no (or shallower)
/// reorgs they are inert, and keeping them pins the window the surviving
/// reorg needs.
fn shrink_realism(
    original: &SwapRealism,
    mut violates: impl FnMut(&SwapRealism) -> bool,
) -> SwapRealism {
    let mut current = original.clone();
    loop {
        let mut improved = false;
        for index in (0..current.reorgs.len()).rev() {
            let mut dropped = current.clone();
            dropped.reorgs.remove(index);
            if violates(&dropped) {
                current = dropped;
                improved = true;
            }
        }
        for index in 0..current.reorgs.len() {
            while current.reorgs[index].depth > 1 {
                let mut shallower = current.clone();
                shallower.reorgs[index].depth -= 1;
                if !violates(&shallower) {
                    break;
                }
                current = shallower;
                improved = true;
            }
        }
        if !improved {
            return current;
        }
    }
}

/// Strictly simpler variants of one strategy, most aggressive first. Each
/// candidate has strictly lower weight (stop budget presence + fault
/// severity + total requested delay), which is what makes
/// [`shrink_profile`] terminate; candidates equal to the canonical
/// compliant strategy are excluded (dropping the deviator covers them).
fn simplifications(strategy: Strategy) -> Vec<Strategy> {
    let mut out = Vec::new();
    match strategy.fault {
        Fault::None => {}
        Fault::Outage { step, quarters } => {
            out.push(Strategy { fault: Fault::None, ..strategy });
            if quarters > 1 {
                out.push(Strategy {
                    fault: Fault::Outage { step, quarters: quarters / 2 },
                    ..strategy
                });
                out.push(Strategy {
                    fault: Fault::Outage { step, quarters: quarters - 1 },
                    ..strategy
                });
            }
        }
        _ => out.push(Strategy { fault: Fault::None, ..strategy }),
    }
    if strategy.stop_after.is_some() {
        out.push(Strategy { stop_after: None, ..strategy });
    }
    match strategy.timing {
        Timing::Eager => {}
        Timing::Procrastinate => {
            out.push(Strategy { timing: Timing::Eager, ..strategy });
            // Concretizing to the maxed delay vector lets the per-entry
            // simplifications below then locate the one step whose delay
            // actually matters.
            out.push(Strategy {
                timing: Timing::Delay(DelayVector([u8::MAX; MAX_DELAY_STEPS])),
                ..strategy
            });
        }
        Timing::Delay(vector) => {
            out.push(Strategy { timing: Timing::Eager, ..strategy });
            for step in 0..MAX_DELAY_STEPS {
                let entry = vector.0[step];
                if entry == 0 {
                    continue;
                }
                let mut zeroed = vector;
                zeroed.set(step, 0);
                let timing = if zeroed.is_zero() { Timing::Eager } else { Timing::Delay(zeroed) };
                out.push(Strategy { timing, ..strategy });
                if entry > 1 {
                    let mut halved = vector;
                    halved.set(step, entry / 2);
                    out.push(Strategy { timing: Timing::Delay(halved), ..strategy });
                    let mut decremented = vector;
                    decremented.set(step, entry - 1);
                    out.push(Strategy { timing: Timing::Delay(decremented), ..strategy });
                }
            }
        }
    }
    out.retain(|candidate| *candidate != strategy && *candidate != Strategy::compliant());
    out
}

/// A violating sample minimized by [`SampledSweep::shrink`]: the
/// reproduction key, both profiles, the minimal profile's verdicts and a
/// rendered regression test.
#[derive(Clone, Debug)]
pub struct ShrunkViolation {
    /// The family the sample came from.
    pub family: String,
    /// The family seed — half of the reproduction key.
    pub family_seed: u64,
    /// The sample index — the other half.
    pub sample_index: usize,
    /// The scenario as originally drawn.
    pub original: SampledScenario,
    /// The locally minimal still-violating scenario.
    pub minimal: SampledScenario,
    /// The minimal scenario's violations (non-empty by construction).
    pub violations: Vec<Violation>,
}

impl ShrunkViolation {
    /// Renders the minimal profile as a copy-pasteable `#[test]` function.
    /// `family_expr` is the constructor expression for the family the test
    /// should re-judge the scenario in, e.g.
    /// `SampledSweep::base_two_party(TwoPartyConfig::default(), 0x5EED, 1)`.
    pub fn regression_test(&self, family_expr: &str) -> String {
        let property = self.violations.first().map(|v| v.property).unwrap_or("hedged");
        let mut out = String::new();
        let _ = writeln!(
            out,
            "/// Minimal still-violating profile shrunk from sample #{} of seed {:#x}\n\
             /// of the family `{}`.\n\
             #[test]\n\
             fn sampled_regression_seed_{:x}_sample_{}() {{\n\
             \x20   use chainsim::PartyId;\n\
             \x20   use modelcheck::sampled::{{SampledScenario, SampledSweep}};\n\
             \x20   use protocols::script::{{DelayVector, Fault, Strategy, Timing}};\n\
             \n\
             \x20   let family = {};\n\
             \x20   let scenario = {};\n\
             \x20   let violations = family.check_scenario(&scenario);\n\
             \x20   assert!(\n\
             \x20       violations.iter().any(|violation| violation.property == \"{}\"),\n\
             \x20       \"shrunken sample must still violate {}: {{violations:?}}\"\n\
             \x20   );\n\
             }}",
            self.sample_index,
            self.family_seed,
            self.family,
            self.family_seed,
            self.sample_index,
            family_expr,
            scenario_expr(&self.minimal),
            property,
            property,
        );
        out
    }
}

/// Renders a scenario as a Rust expression for generated regression tests.
fn scenario_expr(scenario: &SampledScenario) -> String {
    match scenario {
        SampledScenario::TwoParty { alice, bob } => format!(
            "SampledScenario::TwoParty {{ alice: {}, bob: {} }}",
            strategy_expr(alice),
            strategy_expr(bob)
        ),
        SampledScenario::TwoPartyReorg { alice, bob, realism } => format!(
            "SampledScenario::TwoPartyReorg {{ alice: {}, bob: {}, realism: {} }}",
            strategy_expr(alice),
            strategy_expr(bob),
            realism_expr(realism)
        ),
        SampledScenario::Deal { profile } => {
            format!("SampledScenario::Deal {{ profile: {} }}", profile_expr(profile))
        }
        SampledScenario::Auction { behaviour, profile } => format!(
            "SampledScenario::Auction {{ behaviour: {behaviour}, profile: {} }}",
            profile_expr(profile)
        ),
    }
}

/// Renders a [`SwapRealism`] overlay as a fully-qualified Rust expression,
/// so generated regression tests need no extra imports.
fn realism_expr(realism: &SwapRealism) -> String {
    let reorgs: Vec<String> = realism
        .reorgs
        .iter()
        .map(|reorg| {
            format!(
                "chainsim::ReorgEvent {{ chain: chainsim::ChainId({}), at_round: {}, \
                 depth: {}, policy: chainsim::ReorgPolicy::{:?} }}",
                reorg.chain.0, reorg.at_round, reorg.depth, reorg.policy
            )
        })
        .collect();
    format!(
        "protocols::two_party::SwapRealism {{ apricot_depth: {}, banana_depth: {}, \
         reorgs: vec![{}] }}",
        realism.apricot_depth,
        realism.banana_depth,
        reorgs.join(", ")
    )
}

fn profile_expr(profile: &BTreeMap<PartyId, Strategy>) -> String {
    if profile.is_empty() {
        return "std::collections::BTreeMap::new()".into();
    }
    let entries: Vec<String> = profile
        .iter()
        .map(|(party, strategy)| format!("(PartyId({}), {})", party.0, strategy_expr(strategy)))
        .collect();
    format!("[{}].into_iter().collect()", entries.join(", "))
}

/// Renders a strategy as a Rust literal.
fn strategy_expr(strategy: &Strategy) -> String {
    let stop = match strategy.stop_after {
        None => "None".to_string(),
        Some(n) => format!("Some({n})"),
    };
    let timing = match strategy.timing {
        Timing::Eager => "Timing::Eager".to_string(),
        Timing::Procrastinate => "Timing::Procrastinate".to_string(),
        Timing::Delay(vector) => format!("Timing::Delay(DelayVector({:?}))", vector.0),
    };
    let fault = match strategy.fault {
        Fault::None => "Fault::None".to_string(),
        Fault::Garbage { step } => format!("Fault::Garbage {{ step: {step} }}"),
        Fault::Crash { step } => format!("Fault::Crash {{ step: {step} }}"),
        Fault::Outage { step, quarters } => {
            format!("Fault::Outage {{ step: {step}, quarters: {quarters} }}")
        }
    };
    format!("Strategy {{ stop_after: {stop}, timing: {timing}, fault: {fault} }}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ParallelSweep;
    use crate::scenarios::BEHAVIOURS;
    use protocols::bootstrap::BootstrapDeviation;
    use protocols::two_party::{min_finality_margin, swap_max_rounds};

    /// The reorg family's configuration at the corrected margin.
    fn margined() -> TwoPartyConfig {
        let delta = TwoPartyConfig::default().delta_blocks;
        TwoPartyConfig {
            finality_margin: min_finality_margin(MAX_REORG_DEPTH, delta),
            ..TwoPartyConfig::default()
        }
    }

    #[test]
    fn sample_seeds_are_index_sensitive() {
        let a = sample_seed(42, 0);
        let b = sample_seed(42, 1);
        let c = sample_seed(43, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        // And pure: the same inputs always produce the same seed.
        assert_eq!(a, sample_seed(42, 0));
    }

    #[test]
    fn scenarios_rederive_bit_identically() {
        let family = SampledSweep::hedged_two_party(TwoPartyConfig::default(), 0x5EED, 64);
        for index in 0..family.samples() {
            assert_eq!(family.scenario_at(index), family.scenario_at(index));
        }
        // Different seeds draw different scenario sequences.
        let other = SampledSweep::hedged_two_party(TwoPartyConfig::default(), 0x5EED + 1, 64);
        assert!((0..64).any(|i| family.scenario_at(i) != other.scenario_at(i)));
    }

    #[test]
    fn sampled_strategies_respect_their_axes() {
        let conforming = SampledSweep::base_two_party(TwoPartyConfig::default(), 7, 128);
        for index in 0..128 {
            let SampledScenario::TwoParty { alice, bob } = conforming.scenario_at(index) else {
                panic!("two-party target must draw two-party scenarios");
            };
            for strategy in [alice, bob] {
                assert!(strategy.is_compliant(), "conforming-only family drew {strategy}");
            }
        }
        let full = SampledSweep::hedged_two_party(TwoPartyConfig::default(), 7, 128);
        for index in 0..128 {
            let SampledScenario::TwoParty { alice, bob } = full.scenario_at(index) else {
                panic!("two-party target must draw two-party scenarios");
            };
            for strategy in [alice, bob] {
                if let Fault::Outage { quarters, .. } = strategy.fault {
                    assert!((1..=16).contains(&quarters));
                }
                if let Some(stop) = strategy.stop_after {
                    assert!(stop < two_party::SCRIPT_STEPS);
                }
            }
        }
    }

    #[test]
    fn auction_samples_bound_deviators_and_behaviours() {
        let family = SampledSweep::auction(AuctionConfig::default(), 11, 96);
        for index in 0..96 {
            let SampledScenario::Auction { behaviour, profile } = family.scenario_at(index) else {
                panic!("auction target must draw auction scenarios");
            };
            assert!(behaviour < BEHAVIOURS.len());
            assert!(profile.len() <= 1, "auction sampling is single-deviator");
        }
    }

    #[test]
    fn sampled_space_accounting_matches_closed_forms() {
        // Conforming-only base swap: timing axis only, (Δ+1)^3 + 1 = 28
        // per party; a single laggard of 2 parties over 27 non-compliant
        // choices: 1 + 2·27 = 55.
        let base = SampledSweep::base_two_party(TwoPartyConfig::default(), 1, 100);
        assert_eq!(base.sampled_space(), 55.0);
        assert!((base.coverage() - 100.0 / 55.0).abs() < 1e-12);
        // Full-axis hedged swap: 5 stops × ((Δ+1)^4 + 1) timings ×
        // (1 + 18·4) faults per party.
        let hedged = SampledSweep::hedged_two_party(TwoPartyConfig::default(), 1, 100);
        let per = 5.0 * 82.0 * 73.0;
        assert_eq!(hedged.sampled_space(), 1.0 + 2.0 * (per - 1.0) + (per - 1.0) * (per - 1.0));
        // Bootstrap: the enumerable closed form.
        let bootstrap = SampledBootstrap::new(1_000, 1_000, 10, 2, 1, 50);
        assert_eq!(bootstrap.sampled_space(), 19.0);
        // Reorg family: the hedged profile space times the realism axis —
        // no reorg, or chain (2) × depth (MAX_REORG_DEPTH) × round
        // (horizon − 1 = 19 at the default config's 8Δ + 4 = 20 rounds).
        let reorgs = SampledSweep::hedged_two_party_reorgs(TwoPartyConfig::default(), 1, 100);
        let hedged_space = 1.0 + 2.0 * (per - 1.0) + (per - 1.0) * (per - 1.0);
        assert_eq!(reorgs.sampled_space(), hedged_space * 77.0);
    }

    #[test]
    fn shrinker_minimizes_and_preserves_the_verdict() {
        // Synthetic predicate: violates iff party 0 delays step 1 by ≥ 1
        // block (everything else is noise the shrinker must strip).
        let violates = |profile: &BTreeMap<PartyId, Strategy>| {
            profile.get(&PartyId(0)).is_some_and(|s| match s.timing {
                Timing::Delay(v) => v.get(1) >= 1,
                Timing::Procrastinate => true,
                Timing::Eager => false,
            })
        };
        let noisy: BTreeMap<PartyId, Strategy> = [
            (
                PartyId(0),
                Strategy {
                    stop_after: Some(3),
                    timing: Timing::Delay(DelayVector::from_slice(&[2, 7, 1, 3])),
                    fault: Fault::Outage { step: 2, quarters: 12 },
                },
            ),
            (PartyId(1), Strategy::stop_after(0)),
        ]
        .into_iter()
        .collect();
        assert!(violates(&noisy));
        let minimal = shrink_profile(&noisy, violates);
        assert_eq!(minimal.len(), 1, "the second deviator is noise: {minimal:?}");
        let shrunk = minimal[&PartyId(0)];
        assert_eq!(shrunk.stop_after, None);
        assert_eq!(shrunk.fault, Fault::None);
        assert_eq!(
            shrunk.timing,
            Timing::Delay(DelayVector::from_slice(&[0, 1])),
            "only the load-bearing delay entry survives, at its minimum"
        );
        // Local minimality: every further simplification stops violating.
        for simpler in simplifications(shrunk) {
            let candidate: BTreeMap<PartyId, Strategy> =
                [(PartyId(0), simpler)].into_iter().collect();
            assert!(!violates(&candidate), "{simpler:?} still violates");
        }
    }

    #[test]
    fn simplifications_strictly_reduce_weight() {
        fn weight(s: &Strategy) -> u64 {
            let stop = s.stop_after.map_or(0, |n| n as u64 + 1);
            let fault = match s.fault {
                Fault::None => 0,
                Fault::Garbage { .. } | Fault::Crash { .. } => 32,
                Fault::Outage { quarters, .. } => 16 + quarters as u64,
            };
            let timing = match s.timing {
                Timing::Eager => 0,
                Timing::Procrastinate => 8 * 255 + 1,
                Timing::Delay(v) => v.0.iter().map(|&e| e as u64).sum(),
            };
            stop + fault + timing
        }
        let samples = [
            Strategy::compliant().late(),
            Strategy::stop_after(2).with_fault(Fault::Outage { step: 1, quarters: 16 }),
            Strategy::compliant().with_delays(DelayVector::from_slice(&[0, 255, 3])),
            Strategy::stop_after(0),
        ];
        for strategy in samples {
            for simpler in simplifications(strategy) {
                assert!(
                    weight(&simpler) < weight(&strategy),
                    "{simpler:?} does not reduce {strategy:?}"
                );
            }
        }
    }

    #[test]
    fn regression_rendering_is_copy_pasteable() {
        let shrunk = ShrunkViolation {
            family: "sampled base two-party swap (conforming timings)".into(),
            family_seed: 0x5EED,
            sample_index: 7,
            original: SampledScenario::TwoParty {
                alice: Strategy::compliant().late(),
                bob: Strategy::compliant(),
            },
            minimal: SampledScenario::TwoParty {
                alice: Strategy::compliant().with_delays(DelayVector::from_slice(&[0, 1])),
                bob: Strategy::compliant(),
            },
            violations: vec![Violation { scenario: "test".into(), party: BOB, property: "hedged" }],
        };
        let rendered = shrunk
            .regression_test("SampledSweep::base_two_party(TwoPartyConfig::default(), 0x5EED, 1)");
        assert!(rendered.contains("fn sampled_regression_seed_5eed_sample_7()"));
        assert!(rendered.contains("Timing::Delay(DelayVector([0, 1, 0, 0, 0, 0, 0, 0]))"));
        assert!(rendered.contains("violation.property == \"hedged\""));
        assert!(rendered.contains("family.check_scenario(&scenario)"));
    }

    #[test]
    fn reorg_scenarios_rederive_and_respect_their_axes() {
        let config = margined();
        let horizon = swap_max_rounds(&config);
        let family = SampledSweep::hedged_two_party_reorgs(config, 0x5EED, 256);
        let mut with_reorg = 0usize;
        for index in 0..256 {
            assert_eq!(family.scenario_at(index), family.scenario_at(index));
            let SampledScenario::TwoPartyReorg { realism, .. } = family.scenario_at(index) else {
                panic!("reorg target must draw reorg scenarios");
            };
            assert_eq!(realism.apricot_depth, MAX_REORG_DEPTH);
            assert_eq!(realism.banana_depth, MAX_REORG_DEPTH);
            assert!(realism.reorgs.len() <= 1, "at most one sampled reorg");
            for reorg in &realism.reorgs {
                assert!(reorg.chain.0 < 2);
                assert!((1..=MAX_REORG_DEPTH).contains(&reorg.depth));
                assert!((1..horizon).contains(&reorg.at_round));
                assert_eq!(reorg.policy, ReorgPolicy::Redeliver);
                with_reorg += 1;
            }
        }
        assert!(with_reorg > 128, "most samples carry a reorg ({with_reorg}/256)");
    }

    #[test]
    fn reorg_family_with_margin_holds_on_the_engine() {
        // The documented fix: a finality margin of `min_finality_margin`
        // absorbs every redelivering reorg the family samples, so the
        // hedged theorem holds across the full strategy × reorg space.
        let config = margined();
        let family = SampledSweep::hedged_two_party_reorgs(config, 0xFACE, 300);
        let serial = ParallelSweep::new(1).run(&family);
        let parallel = ParallelSweep::new(4).run(&family);
        assert_eq!(serial, parallel);
        assert_eq!(serial.runs, 300);
        assert!(serial.holds(), "{:?}", serial.violations);
    }

    #[test]
    fn zero_margin_reorg_violation_is_found_shrunk_and_rendered() {
        // The documented sore-loser-by-reorg regression, pinned through the
        // sampled tier's full reproduction pipeline: with a zero finality
        // margin the family must surface a violation within the pinned
        // budget, shrink it to a minimal still-violating scenario and
        // render a regression test for it. This is the "no silent red"
        // path — the violation is genuine and its fix (the margin) is
        // pinned by `reorg_family_with_margin_holds_on_the_engine`.
        let family =
            SampledSweep::hedged_two_party_reorgs(TwoPartyConfig::default(), 0x5EED, 4_000);
        let index = family
            .find_violation(4_000)
            .expect("a zero-margin reorg family must surface a violation in the pinned budget");
        let shrunk = family.shrink(index).expect("the violating sample must shrink");
        assert!(
            !family.check_scenario(&shrunk.minimal).is_empty(),
            "the minimal scenario still violates"
        );
        let SampledScenario::TwoPartyReorg { realism, .. } = &shrunk.minimal else {
            panic!("reorg shrinks stay reorg scenarios");
        };
        assert_eq!(realism.reorgs.len(), 1, "the reorg is load-bearing: {:?}", shrunk.minimal);
        let rendered = shrunk.regression_test(
            "SampledSweep::hedged_two_party_reorgs(TwoPartyConfig::default(), 0x5EED, 4_000)",
        );
        assert!(rendered.contains("SampledScenario::TwoPartyReorg"));
        assert!(rendered.contains("chainsim::ReorgEvent"));
        assert!(rendered.contains("family.check_scenario(&scenario)"));
    }

    #[test]
    fn sampled_sweep_runs_deterministically_on_the_engine() {
        let family = SampledSweep::hedged_two_party(TwoPartyConfig::default(), 0xFACE, 200);
        let serial = ParallelSweep::new(1).run(&family);
        let parallel = ParallelSweep::new(4).run(&family);
        assert_eq!(serial, parallel);
        assert_eq!(serial.runs, 200);
        assert!(serial.holds(), "{:?}", serial.violations);
    }

    #[test]
    fn sampled_bootstrap_draws_legal_deviations() {
        let family = SampledBootstrap::new(5_000, 20_000, 10, 3, 21, 64);
        let legal: Vec<SampledScenario> = BootstrapDeviation::all(3)
            .iter()
            .map(|deviation| {
                let profile = deviation.profile(3);
                SampledScenario::Deal { profile: deviators([ALICE, BOB], &profile) }
            })
            .collect();
        for index in 0..64 {
            let scenario = family.scenario_at(index);
            assert!(legal.contains(&scenario), "sample {index} drew {scenario:?}");
            assert_eq!(scenario, family.scenario_at(index));
        }
        let summary = ParallelSweep::new(2).run(&family);
        assert_eq!(summary.runs, 64);
        assert!(summary.holds(), "{:?}", summary.violations);
    }
}
