//! Scenario families for the sweep engine.
//!
//! Each protocol states what model checking needs to know about it once,
//! by implementing [`Checked`]: who plays and for how many script steps,
//! its Δ, and which `(party, property)` pairs a report breaks. The
//! enumerated family [`Sweep`] maps a dense index range onto a protocol's
//! variants × a table of strategy profiles and judges every run through
//! that trait, and the sampled tier's
//! [`SampledSweep`](crate::sampled::SampledSweep) draws from the same
//! trait, so a protocol joins both tiers by implementing it. The protocols
//! deliberately share the [`Violation`] vocabulary (`"hedged"`, `"safety"`,
//! `"conservation"`, …) so summaries from different protocols merge
//! cleanly.

use std::collections::{BTreeMap, BTreeSet};

use chainsim::{PartyId, World};
use protocols::auction::{self, AuctionConfig, AuctionReport, AuctioneerBehaviour, AUCTIONEER};
use protocols::bootstrap::{BootstrapConfig, BootstrapDeviation, BootstrapRunReport};
use protocols::broker::{broker_deal_config, BrokerConfig};
use protocols::deal::{self, DealConfig, DealReport};
use protocols::outcome::Payoffs;
use protocols::script::{self, Profile, Protocol, Strategy};
use protocols::two_party::{
    self, SwapProtocol, SwapRealism, TwoPartyConfig, TwoPartyReport, TwoPartySwap, ALICE, BOB,
};
use rand::rngs::StdRng;
use rand::Rng;
use swapgraph::{Automorphism, Digraph};

use crate::engine::{FamilyScratch, ScenarioGen};
use crate::sampled::{per_party_domain, profile_space, sample_profile, SampledScenario};
use crate::Violation;

/// The synthetic party id used for violations that concern the run as a
/// whole (conservation of funds) rather than a specific party.
pub const WHOLE_RUN: PartyId = PartyId(u32::MAX);

// ---------------------------------------------------------------------------
// What each protocol states once.
// ---------------------------------------------------------------------------

/// What model checking needs to know about one [`Protocol`], stated once.
///
/// The enumerated [`Sweep`] and the sampled
/// [`SampledSweep`](crate::sampled::SampledSweep) are generic over this
/// trait, so a protocol joins both tiers by implementing it. Three facts
/// are required; the defaults cover protocols whose scripts all have the
/// same length and whose parties all deviate on the
/// `stop_after × timing × faults` axes. Each run's
/// [`Protocol::report`] is judged by [`Checked::violations`]; the setup is
/// `Send` because a worker's family slot keeps the protocol's
/// [`Prefix`](protocols::script::Prefix).
pub trait Checked: Protocol<Setup: Send + 'static> + Clone + Send + Sync + 'static {
    /// Every party in id order, with the number of steps of its script.
    fn players(&self) -> Vec<(PartyId, usize)>;

    /// The synchrony bound Δ in blocks, which scales the sampled delay and
    /// outage axes.
    fn delta(&self) -> u64;

    /// The `(party, property)` pairs `report` breaks under `profile`;
    /// run-wide properties are charged to [`WHOLE_RUN`].
    fn violations(
        &self,
        report: &Self::Report,
        profile: Profile<'_>,
    ) -> Vec<(PartyId, &'static str)>;

    /// How a violating run's label renders `profile`, after the family
    /// name.
    fn label(&self, profile: Profile<'_>) -> String {
        let parties = self.players().into_iter().map(|(party, _)| party);
        format!(" with profile {:?}", deviators(parties, profile))
    }

    /// The rational climber's score of a run in which `deviator` alone
    /// deviates: its total payoff and the worst compliant party's hedge
    /// margin. `None` for protocols without a per-party margin, which do
    /// not climb.
    fn climb_score(&self, _report: &Self::Report, _deviator: PartyId) -> Option<(i128, i128)> {
        None
    }

    /// Draws one deviators-only profile for the sampled tier: up to
    /// `max_deviators` parties deviate, on the timing axis alone if
    /// `conforming_only`.
    fn draw(
        &self,
        rng: &mut StdRng,
        max_deviators: usize,
        conforming_only: bool,
    ) -> BTreeMap<PartyId, Strategy> {
        sample_profile(rng, &self.players(), self.delta(), max_deviators, conforming_only)
    }

    /// The size of the space [`Checked::draw`] samples from, as a float.
    fn sampled_space(&self, max_deviators: usize, conforming_only: bool) -> f64 {
        let players = self.players();
        let per_party = per_party_domain(players[0].1, self.delta(), conforming_only);
        profile_space(players.len(), per_party, max_deviators)
    }

    /// The sampled scenario in which variant `variant` plays `profile`
    /// under the chain-realism overlay `realism`.
    fn scenario(
        &self,
        _variant: usize,
        profile: BTreeMap<PartyId, Strategy>,
        _realism: Option<SwapRealism>,
    ) -> SampledScenario {
        SampledScenario::Deal { profile }
    }
}

/// The deviators-only view of `profile` over `parties`: every party whose
/// strategy is not the canonical eager compliant one. (A
/// conforming-but-lazy party is a distinct behaviour and stays.)
pub(crate) fn deviators(
    parties: impl IntoIterator<Item = PartyId>,
    profile: Profile<'_>,
) -> BTreeMap<PartyId, Strategy> {
    parties
        .into_iter()
        .map(|party| (party, profile(party)))
        .filter(|(_, strategy)| *strategy != Strategy::compliant())
        .collect()
}

/// The [`Violation`]s `report` shows under `profile`. `label` is only
/// called for violating runs, so the (overwhelmingly common) clean run
/// allocates nothing here.
pub(crate) fn judge<P: Checked>(
    protocol: &P,
    report: &P::Report,
    profile: Profile<'_>,
    label: impl Fn() -> String,
) -> Vec<Violation> {
    protocol
        .violations(report, profile)
        .into_iter()
        .map(|(party, property)| Violation { scenario: label(), party, property })
        .collect()
}

/// A party's total payoff over every asset in the run.
fn party_total(payoffs: &Payoffs, party: PartyId) -> i128 {
    payoffs.iter().filter(|(p, _, _)| *p == party).map(|(_, _, payoff)| payoff.value()).sum()
}

// ---------------------------------------------------------------------------
// The enumerated family.
// ---------------------------------------------------------------------------

/// An enumerated family: every profile of a table, run under each of a
/// protocol's variants. Scenario `i` is variant `i / rows` playing row
/// `i % rows`, so one variant's scenarios are adjacent and share its
/// recorded prefix.
#[derive(Clone, Debug)]
pub struct Sweep<P> {
    name: String,
    /// The protocol under each variant (the auction's auctioneer
    /// behaviours). Each changes the compliant trajectory, so each resumes
    /// from its own recorded prefix.
    variants: Vec<P>,
    profiles: ProfileTable,
    /// The symmetry and partial-order reduction of a
    /// [`DealSweep::reduced`] family.
    reduction: Option<Reduction>,
}

#[derive(Clone, Debug)]
enum ProfileTable {
    /// Every party ranges independently over `space`, decoded
    /// arithmetically rather than stored (see [`product_strategy`]).
    Product { parties: Vec<PartyId>, space: Vec<Strategy> },
    /// An explicit list of deviators-only profiles.
    List(Vec<BTreeMap<PartyId, Strategy>>),
}

impl ProfileTable {
    fn len(&self) -> usize {
        match self {
            ProfileTable::Product { parties, space } => space.len().pow(parties.len() as u32),
            ProfileTable::List(profiles) => profiles.len(),
        }
    }
}

/// Mixed-radix decode of a product row: party `k`'s strategy is digit `k`
/// of `row` in base `space.len()`, most significant digit first, so
/// profiles enumerate in lexicographic order.
fn product_strategy(
    parties: &[PartyId],
    space: &[Strategy],
    row: usize,
    party: PartyId,
) -> Strategy {
    match parties.iter().position(|&p| p == party) {
        Some(k) => space[row / space.len().pow((parties.len() - 1 - k) as u32) % space.len()],
        None => Strategy::compliant(),
    }
}

#[derive(Clone, Debug)]
struct Reduction {
    /// Orbit weight per representative.
    weights: Vec<usize>,
    /// The documented size of the family's *unreduced* profile space — the
    /// closed form the orbit weights and pruned count must sum to.
    strategies: usize,
    /// Documented profiles covered without execution by partial-order
    /// reduction (orbit-weighted).
    pruned: usize,
    /// The leader-stabilizing automorphism group the family quotients by.
    group: Vec<Automorphism>,
    /// Canonical representative profile → scenario index, for mapping
    /// arbitrary profiles onto their executed representative.
    rep_index: BTreeMap<ProfileKey, usize>,
}

/// The parties of `protocol` and the strategy space their scripts share.
///
/// # Panics
///
/// Panics if the scripts differ in length.
fn shared_space<P: Checked>(protocol: &P) -> (Vec<PartyId>, Vec<Strategy>) {
    let players = protocol.players();
    let steps = players[0].1;
    assert!(
        players.iter().all(|&(_, s)| s == steps),
        "enumerated tables need scripts of one length"
    );
    (players.into_iter().map(|(party, _)| party).collect(), Strategy::all(steps))
}

impl<P: Checked> Sweep<P> {
    /// The full product space: every party independently ranges over the
    /// whole `stop_after × timing × faults` space of its script,
    /// `|space|^n` scenarios.
    pub fn full(name: impl Into<String>, protocol: P) -> Self {
        let (parties, space) = shared_space(&protocol);
        Self::of(name, vec![protocol], ProfileTable::Product { parties, space })
    }

    /// Profiles with at most `max_deviators` parties playing something
    /// other than the canonical eager compliant strategy:
    /// `Σ_{j≤k} C(n,j)·(|space|−1)^j` scenarios. The paper's theorems are
    /// per-compliant-party, so small budgets already cover the interesting
    /// cases while keeping dense six-party graphs tractable.
    pub fn at_most(name: impl Into<String>, protocol: P, max_deviators: usize) -> Self {
        let (parties, space) = shared_space(&protocol);
        let mut profiles = Vec::new();
        let mut current = BTreeMap::new();
        enumerate_profiles(&parties, &space, max_deviators, 0, &mut current, &mut |profile| {
            profiles.push(profile.clone())
        });
        debug_assert_eq!(
            profiles.len(),
            bounded_profile_count(parties.len(), space.len() - 1, max_deviators),
            "profile enumeration must match its closed form"
        );
        Self::of(name, vec![protocol], ProfileTable::List(profiles))
    }

    fn of(name: impl Into<String>, variants: Vec<P>, profiles: ProfileTable) -> Self {
        Sweep { name: name.into(), variants, profiles, reduction: None }
    }

    /// Decodes scenario `index` into a (deviators-only) strategy profile.
    pub fn profile(&self, index: usize) -> BTreeMap<PartyId, Strategy> {
        let row = index % self.profiles.len();
        match &self.profiles {
            ProfileTable::Product { parties, space } => {
                deviators(parties.iter().copied(), &|party| {
                    product_strategy(parties, space, row, party)
                })
            }
            ProfileTable::List(profiles) => profiles[row].clone(),
        }
    }
}

impl<P: Checked> ScenarioGen for Sweep<P> {
    fn family(&self) -> String {
        self.name.clone()
    }

    fn total(&self) -> usize {
        self.variants.len() * self.profiles.len()
    }

    fn strategies(&self) -> usize {
        self.reduction.as_ref().map_or(self.total(), |reduction| reduction.strategies)
    }

    fn check(
        &self,
        index: usize,
        scratch: &mut World,
        cache: &mut FamilyScratch,
    ) -> Vec<Violation> {
        let (variant, row) = (index / self.profiles.len(), index % self.profiles.len());
        let protocol = &self.variants[variant];
        let mut run = |profile: Profile<'_>| {
            let report = cache.run(protocol, variant, profile, scratch);
            judge(protocol, &report, profile, || {
                format!("{}{}", self.name, protocol.label(profile))
            })
        };
        match &self.profiles {
            ProfileTable::Product { parties, space } => {
                run(&|party| product_strategy(parties, space, row, party))
            }
            ProfileTable::List(profiles) => run(&script::profile(&profiles[row])),
        }
    }
}

// ---------------------------------------------------------------------------
// Two-party swaps.
// ---------------------------------------------------------------------------

impl Checked for TwoPartySwap {
    fn players(&self) -> Vec<(PartyId, usize)> {
        let steps = match self.protocol {
            SwapProtocol::Hedged => two_party::SCRIPT_STEPS,
            SwapProtocol::Base => two_party::BASE_SCRIPT_STEPS,
        };
        vec![(ALICE, steps), (BOB, steps)]
    }

    fn delta(&self) -> u64 {
        self.config.delta_blocks
    }

    /// The hedged predicate per compliant party, plus conservation whenever
    /// at least one compliant party remains to settle the contracts (with
    /// every party absent, value legitimately stays escrowed).
    fn violations(
        &self,
        report: &TwoPartyReport,
        profile: Profile<'_>,
    ) -> Vec<(PartyId, &'static str)> {
        let (alice, bob) = (profile(ALICE).is_compliant(), profile(BOB).is_compliant());
        let mut violations = Vec::new();
        if alice && !report.hedged_for_alice {
            violations.push((ALICE, "hedged"));
        }
        if bob && !report.hedged_for_bob {
            violations.push((BOB, "hedged"));
        }
        if (alice || bob) && !report.payoffs.conserved() {
            violations.push((WHOLE_RUN, "conservation"));
        }
        violations
    }

    fn label(&self, profile: Profile<'_>) -> String {
        format!(", alice={}, bob={}", profile(ALICE), profile(BOB))
    }

    fn climb_score(&self, report: &TwoPartyReport, deviator: PartyId) -> Option<(i128, i128)> {
        let compliant_margin =
            if deviator == ALICE { report.bob_hedge_margin } else { report.alice_hedge_margin };
        Some((party_total(&report.payoffs, deviator), compliant_margin))
    }

    fn scenario(
        &self,
        _variant: usize,
        profile: BTreeMap<PartyId, Strategy>,
        realism: Option<SwapRealism>,
    ) -> SampledScenario {
        let strategy = script::profile(&profile);
        let (alice, bob) = (strategy(ALICE), strategy(BOB));
        match realism {
            None => SampledScenario::TwoParty { alice, bob },
            Some(realism) => SampledScenario::TwoPartyReorg { alice, bob, realism },
        }
    }
}

/// The full product sweep over both parties' strategy spaces for a
/// two-party swap (hedged §5.2 or base §5.1).
///
/// Each party independently ranges over the whole
/// `stop_after × timing × faults` space of its script — the hedged
/// four-step scripts give `49 × 49` scenarios, the base three-step scripts
/// `31 × 31`. The spaces are exact-length per protocol: enumerating the
/// base swap over the hedged bound would re-run behaviourally compliant
/// stop-points and double-count the compliant outcome in summaries.
pub type TwoPartySweep = Sweep<TwoPartySwap>;

impl Sweep<TwoPartySwap> {
    /// Sweeps the hedged two-party swap (§5.2).
    pub fn hedged(config: TwoPartyConfig) -> Self {
        Self::full("hedged two-party swap", TwoPartySwap::hedged(config))
    }

    /// Sweeps the base (unhedged) two-party swap (§5.1) over its own
    /// (three-step) strategy space. The sweep is expected to *find*
    /// hedged-property violations: that is the paper's motivating attack.
    pub fn base(config: TwoPartyConfig) -> Self {
        Self::full("base two-party swap", TwoPartySwap::base(config))
    }
}

// ---------------------------------------------------------------------------
// Deal-engine protocols (multi-party swaps and brokered sales).
// ---------------------------------------------------------------------------

impl Checked for DealConfig {
    fn players(&self) -> Vec<(PartyId, usize)> {
        self.parties().into_iter().map(|party| (party, deal::SCRIPT_STEPS)).collect()
    }

    fn delta(&self) -> u64 {
        self.delta_blocks
    }

    /// The per-compliant-party hedged, safety and stranded-principal
    /// predicates plus the deviator-count-sensitive conservation check.
    fn violations(
        &self,
        report: &DealReport,
        profile: Profile<'_>,
    ) -> Vec<(PartyId, &'static str)> {
        let mut violations = Vec::new();
        for (&party, outcome) in &report.parties {
            let compliant = profile(party).is_compliant();
            if compliant && !outcome.hedged {
                violations.push((party, "hedged"));
            }
            if compliant && !outcome.safety {
                violations.push((party, "safety"));
            }
            // A compliant party's settle step frees every incident arc
            // after the final deadline, so none of its principals may end
            // the run stuck in escrow — under any number of deviators.
            if compliant && outcome.escrowed_stuck > 0 {
                violations.push((party, "stranded-principal"));
            }
        }
        // Funds conservation (payoffs sum to zero) holds whenever at most
        // one party deviates. Several simultaneous walk-aways can strand
        // their own deposits inside escrows nobody settles — a loss to the
        // deviators, not a soundness bug — so for those profiles the check
        // weakens to "no value is ever minted" per asset (the stranded
        // value is pinned to the deviators by the stranded-principal check
        // above plus each compliant party's hedged premium bound).
        // Conforming-but-lazy parties settle everything they can reach, so
        // they do not count against the strict-conservation budget.
        let deviators = report.parties.keys().filter(|&&party| !profile(party).is_compliant());
        if deviators.count() <= 1 {
            if !report.payoffs.conserved() {
                violations.push((WHOLE_RUN, "conservation"));
            }
        } else {
            let mut per_asset: BTreeMap<chainsim::AssetId, i128> = BTreeMap::new();
            for (_, asset, payoff) in report.payoffs.iter() {
                *per_asset.entry(asset).or_insert(0) += payoff.value();
            }
            if per_asset.values().any(|&total| total > 0) {
                violations.push((WHOLE_RUN, "minting"));
            }
        }
        violations
    }

    fn climb_score(&self, report: &DealReport, deviator: PartyId) -> Option<(i128, i128)> {
        let margin = report
            .parties
            .iter()
            .filter(|(party, _)| **party != deviator)
            .map(|(_, outcome)| outcome.hedge_margin)
            .min()
            .unwrap_or(0);
        Some((party_total(&report.payoffs, deviator), margin))
    }
}

/// A profile rendered as a sorted association list, the key the reduction
/// machinery uses to index canonical representatives.
type ProfileKey = Vec<(PartyId, Strategy)>;

fn profile_key(profile: &BTreeMap<PartyId, Strategy>) -> ProfileKey {
    profile.iter().map(|(&party, &strategy)| (party, strategy)).collect()
}

/// Relabels a profile's deviators through a digraph automorphism. Strategies
/// ride along untouched: an automorphism only renames parties, and the deal
/// dynamics on an automorphic relabeling are the original dynamics under
/// the same renaming (premium tables and endowments are arc-local, so a
/// leader-stabilizing relabeling maps them onto themselves).
fn apply_automorphism(
    perm: &Automorphism,
    profile: &BTreeMap<PartyId, Strategy>,
) -> BTreeMap<PartyId, Strategy> {
    profile.iter().map(|(&party, &strategy)| (PartyId(perm[&party.0]), strategy)).collect()
}

/// `true` iff `profile` has at least two deviating-or-lazy parties and
/// their deviations pairwise commute: no two of them share an arc in either
/// direction, so no escrow's fate depends on more than one of them. Such a
/// profile's outcome per compliant party is already witnessed by the
/// single-deviator sub-profiles (each arc sees exactly the same deviation
/// schedule), so partial-order reduction skips it.
/// `tests/reduction_oracle.rs` replays pruned profiles brute-force to
/// validate the criterion.
fn commuting_deviations(digraph: &Digraph, profile: &BTreeMap<PartyId, Strategy>) -> bool {
    if profile.len() < 2 {
        return false;
    }
    let deviators: Vec<PartyId> = profile.keys().copied().collect();
    deviators.iter().enumerate().all(|(i, &a)| {
        deviators[i + 1..]
            .iter()
            .all(|&b| !digraph.contains_arc(a.0, b.0) && !digraph.contains_arc(b.0, a.0))
    })
}

/// A sweep over the joint strategy profiles of one [`DealConfig`]: the
/// full product ([`Sweep::full`]), a deviator budget ([`Sweep::at_most`])
/// or a symmetry- and partial-order-reduced budget
/// ([`DealSweep::reduced`]).
pub type DealSweep = Sweep<DealConfig>;

impl Sweep<DealConfig> {
    /// Creates a symmetry- and partial-order-reduced sweep over the
    /// profiles of `config` with at most `max_deviators` deviators.
    ///
    /// Two reductions compose, and both are exact for the per-compliant-
    /// party properties the sweep checks:
    ///
    /// - **Symmetry.** Profiles in the same orbit of the leader-stabilizing
    ///   automorphism group of the deal digraph are relabelings of each
    ///   other, so only one canonical representative per orbit is executed.
    ///   The representative carries its orbit size as a weight, so
    ///   [`strategies`](ScenarioGen::strategies) still reports the full
    ///   unreduced space.
    /// - **Partial-order reduction.** Profiles whose deviators pairwise
    ///   share no arc decompose into independent single-deviator
    ///   sub-profiles that the budget already sweeps, so they are counted
    ///   (into the pruned tally) but never executed.
    ///
    /// The orbit weights plus the pruned tally are asserted to sum exactly
    /// to the unreduced closed form `Σ_{j≤k} C(n,j)·(|space|−1)^j`, and
    /// `tests/reduction_oracle.rs` replays folded orbits and pruned profiles
    /// brute-force on small graphs to pin byte-level parity.
    ///
    /// # Panics
    ///
    /// Panics if `max_deviators > 2` on a digraph with a non-trivial
    /// leader-stabilizing symmetry group (the orbit enumeration is
    /// closed-form up to pairs; larger budgets fall back to
    /// [`Sweep::at_most`] or a symmetry-free graph).
    pub fn reduced(name: impl Into<String>, config: DealConfig, max_deviators: usize) -> Self {
        let (parties, space) = shared_space(&config);
        let deviating: Vec<Strategy> =
            space.iter().copied().filter(|s| *s != Strategy::compliant()).collect();
        let leader_vertices: BTreeSet<swapgraph::Vertex> =
            config.leaders.iter().map(|party| party.0).collect();
        let group = config.digraph.automorphisms_stabilizing(&leader_vertices);
        let space_size = bounded_profile_count(parties.len(), deviating.len(), max_deviators);

        let mut profiles: Vec<BTreeMap<PartyId, Strategy>> = Vec::new();
        let mut weights: Vec<usize> = Vec::new();
        let mut pruned = 0usize;

        if group.len() <= 1 {
            // No usable symmetry (e.g. a cycle whose pinned leader kills
            // every rotation): each profile is its own orbit and only
            // partial-order reduction prunes.
            let mut current = BTreeMap::new();
            enumerate_profiles(&parties, &space, max_deviators, 0, &mut current, &mut |profile| {
                if commuting_deviations(&config.digraph, profile) {
                    pruned += 1;
                } else {
                    profiles.push(profile.clone());
                    weights.push(1);
                }
            });
        } else {
            assert!(
                max_deviators <= 2,
                "symmetry-reduced sweeps support at most two simultaneous deviators"
            );
            // The all-compliant profile is a fixed point of every
            // relabeling: a one-element orbit.
            profiles.push(BTreeMap::new());
            weights.push(1);
            if max_deviators >= 1 {
                // Single deviators: one representative per party orbit,
                // weighted by the orbit size. A lone deviation never
                // commutes with anything, so POR does not apply.
                for &party in &parties {
                    let orbit: BTreeSet<PartyId> =
                        group.iter().map(|perm| PartyId(perm[&party.0])).collect();
                    if *orbit.first().expect("orbits are non-empty") != party {
                        continue;
                    }
                    for &strategy in &deviating {
                        profiles.push(BTreeMap::from([(party, strategy)]));
                        weights.push(orbit.len());
                    }
                }
            }
            if max_deviators >= 2 {
                // Deviator pairs: one representative pair per orbit of the
                // group's action on unordered pairs, with weights from
                // orbit–stabilizer. `fixes` counts elements fixing the pair
                // pointwise, `swaps` those exchanging its endpoints; a
                // profile `{a: s1, b: s2}` is additionally fixed by a swap
                // exactly when `s1 == s2`, so its orbit has size
                // `|G|/fixes` for distinct strategies and `|G|/(fixes +
                // swaps)` for equal ones. When swaps exist, the two
                // orderings of a distinct-strategy pair fold into one
                // representative.
                for (i, &a) in parties.iter().enumerate() {
                    for &b in &parties[i + 1..] {
                        let pair_orbit: BTreeSet<(PartyId, PartyId)> = group
                            .iter()
                            .map(|perm| {
                                let (x, y) = (perm[&a.0], perm[&b.0]);
                                (PartyId(x.min(y)), PartyId(x.max(y)))
                            })
                            .collect();
                        if *pair_orbit.first().expect("orbits are non-empty") != (a, b) {
                            continue;
                        }
                        let fixes =
                            group.iter().filter(|p| p[&a.0] == a.0 && p[&b.0] == b.0).count();
                        let swaps =
                            group.iter().filter(|p| p[&a.0] == b.0 && p[&b.0] == a.0).count();
                        // Orbit–stabilizer sanity: stabilizer orders divide
                        // the group order.
                        assert!(group.len().is_multiple_of(fixes + swaps));
                        assert!(group.len().is_multiple_of(fixes));
                        let distinct_weight = group.len() / fixes;
                        let equal_weight = group.len() / (fixes + swaps);
                        let adjacent = config.digraph.contains_arc(a.0, b.0)
                            || config.digraph.contains_arc(b.0, a.0);
                        if !adjacent {
                            // POR prunes the whole block: adjacency is
                            // automorphism-invariant, so the entire orbit of
                            // every assignment on this pair commutes too.
                            pruned += if swaps > 0 {
                                deviating.len() * (deviating.len() - 1) / 2 * distinct_weight
                                    + deviating.len() * equal_weight
                            } else {
                                deviating.len() * deviating.len() * distinct_weight
                            };
                            continue;
                        }
                        for (si, &s1) in deviating.iter().enumerate() {
                            for (sj, &s2) in deviating.iter().enumerate() {
                                if swaps > 0 && sj < si {
                                    continue; // folded into the (s2, s1) rep
                                }
                                let weight = if swaps > 0 && si == sj {
                                    equal_weight
                                } else {
                                    distinct_weight
                                };
                                profiles.push(BTreeMap::from([(a, s1), (b, s2)]));
                                weights.push(weight);
                            }
                        }
                    }
                }
            }
        }

        let weighted: usize = weights.iter().sum();
        assert_eq!(
            weighted + pruned,
            space_size,
            "orbit weights plus the pruned tally must sum to the closed form"
        );
        let rep_index: BTreeMap<ProfileKey, usize> = profiles
            .iter()
            .enumerate()
            .map(|(index, profile)| (profile_key(profile), index))
            .collect();
        assert_eq!(rep_index.len(), profiles.len(), "representatives must be distinct");

        let reduction = Reduction { weights, strategies: space_size, pruned, group, rep_index };
        Sweep {
            reduction: Some(reduction),
            ..Self::of(name, vec![config], ProfileTable::List(profiles))
        }
    }

    /// Whether this sweep was built by [`DealSweep::reduced`].
    pub fn is_reduced(&self) -> bool {
        self.reduction.is_some()
    }

    /// The orbit weight of scenario `index`: how many profiles of the
    /// unreduced space the executed representative stands for. Always 1 for
    /// unreduced sweeps.
    pub fn weight(&self, index: usize) -> usize {
        self.reduction.as_ref().map_or(1, |reduction| reduction.weights[index])
    }

    /// Documented profiles skipped by partial-order reduction
    /// (orbit-weighted); 0 for unreduced sweeps.
    pub fn pruned_strategies(&self) -> usize {
        self.reduction.as_ref().map_or(0, |reduction| reduction.pruned)
    }

    /// The leader-stabilizing automorphism group a reduced sweep quotients
    /// by (empty for unreduced sweeps).
    pub fn symmetry_group(&self) -> &[Automorphism] {
        self.reduction.as_ref().map(|reduction| reduction.group.as_slice()).unwrap_or_default()
    }

    /// Whether partial-order reduction would skip `profile`: at least two
    /// deviating-or-lazy parties, pairwise sharing no arc.
    pub fn por_pruned(&self, profile: &BTreeMap<PartyId, Strategy>) -> bool {
        self.is_reduced() && commuting_deviations(&self.variants[0].digraph, profile)
    }

    /// Maps an arbitrary profile onto its executed canonical representative:
    /// the scenario index plus a witnessing automorphism `π` with
    /// `π(profile) == self.profile(index)`. Returns `None` when the profile
    /// has no representative — it was pruned by partial-order reduction, or
    /// the sweep is unreduced.
    pub fn canonicalize(
        &self,
        profile: &BTreeMap<PartyId, Strategy>,
    ) -> Option<(usize, &Automorphism)> {
        let reduction = self.reduction.as_ref()?;
        reduction.group.iter().find_map(|perm| {
            let image = apply_automorphism(perm, profile);
            reduction.rep_index.get(&profile_key(&image)).map(|&index| (index, perm))
        })
    }
}

/// The number of profiles with at most `max_deviators` deviators: each of
/// `j ≤ max_deviators` deviating parties independently picks one of
/// `deviating` non-compliant strategies. This is the closed form that
/// [`Sweep::at_most`] executes in full and [`DealSweep::reduced`]
/// documents through orbit weights plus its pruned tally.
pub fn bounded_profile_count(parties: usize, deviating: usize, max_deviators: usize) -> usize {
    (0..=max_deviators.min(parties)).map(|j| binomial(parties, j) * deviating.pow(j as u32)).sum()
}

fn binomial(n: usize, k: usize) -> usize {
    if k > n {
        return 0;
    }
    let mut result = 1usize;
    for i in 0..k {
        result = result * (n - i) / (i + 1);
    }
    result
}

fn enumerate_profiles(
    parties: &[PartyId],
    strategies: &[Strategy],
    max_deviators: usize,
    index: usize,
    profile: &mut BTreeMap<PartyId, Strategy>,
    visit: &mut impl FnMut(&BTreeMap<PartyId, Strategy>),
) {
    if index == parties.len() {
        visit(profile);
        return;
    }
    let deviators = profile.len();
    // Canonical-compliant branch (the party is simply absent from the
    // profile). Conforming-but-lazy strategies count against the budget:
    // they are distinct behaviours the sweep must run.
    enumerate_profiles(parties, strategies, max_deviators, index + 1, profile, visit);
    if deviators < max_deviators {
        for &strategy in strategies.iter().filter(|s| **s != Strategy::compliant()) {
            profile.insert(parties[index], strategy);
            enumerate_profiles(parties, strategies, max_deviators, index + 1, profile, visit);
            profile.remove(&parties[index]);
        }
    }
}

// ---------------------------------------------------------------------------
// Brokered sales (§8).
// ---------------------------------------------------------------------------

/// The brokered-sale family: a [`BrokerConfig`] swept as the deal it
/// compiles to ([`broker_deal_config`]), with pooled worlds and per-worker
/// recorded prefixes — the same hot path as every other deal family.
#[derive(Debug)]
pub enum BrokerSweep {}

impl BrokerSweep {
    /// The default brokered sale with up to `max_deviators` simultaneous
    /// deviators.
    pub fn at_most(config: &BrokerConfig, max_deviators: usize) -> DealSweep {
        DealSweep::at_most("brokered sale", broker_deal_config(config), max_deviators)
    }
}

// ---------------------------------------------------------------------------
// Premium bootstrapping (§6).
// ---------------------------------------------------------------------------

impl Checked for BootstrapConfig {
    fn players(&self) -> Vec<(PartyId, usize)> {
        // A step per level, then the principal redeem and the settle step.
        let steps = self.rounds as usize + 3;
        vec![(ALICE, steps), (BOB, steps)]
    }

    fn delta(&self) -> u64 {
        self.delta_blocks()
    }

    /// The §6 bounded-loss guarantee for the compliant survivor plus
    /// pure-transfer conservation.
    fn violations(
        &self,
        report: &BootstrapRunReport,
        profile: Profile<'_>,
    ) -> Vec<(PartyId, &'static str)> {
        let mut violations = Vec::new();
        if !report.loss_bounded_by_initial_risk {
            // The wronged party is the compliant survivor (or the whole run
            // when nobody deviated and settlement itself misbehaved).
            let victim = match deviators([ALICE, BOB], profile).into_keys().next() {
                Some(ALICE) => BOB,
                Some(_) => ALICE,
                None => WHOLE_RUN,
            };
            violations.push((victim, "bounded-loss"));
        }
        // Every cascade settles completely, so payoffs are a pure transfer.
        if report.alice_payoff + report.bob_payoff != 0 {
            violations.push((WHOLE_RUN, "conservation"));
        }
        violations
    }

    /// The cascade's own vocabulary: no deviation with probability ⅛,
    /// otherwise a uniform party, level and [`BootstrapDeviation`] kind.
    fn draw(&self, rng: &mut StdRng, _: usize, _: bool) -> BTreeMap<PartyId, Strategy> {
        if rng.gen_range(0..8u32) == 0 {
            return BTreeMap::new();
        }
        let party = PartyId(rng.gen_range(0..2u32));
        let level = rng.gen_range(0..self.rounds + 1);
        let deviation = match rng.gen_range(0..3u32) {
            0 => BootstrapDeviation::StopAtLevel { party, level },
            1 => BootstrapDeviation::LateAtLevel { party, level },
            _ => BootstrapDeviation::WrongSecretAtLevel { party, level },
        };
        cascade_profile(&deviation, self.rounds)
    }

    /// The enumerable deviation space the draws come from.
    fn sampled_space(&self, _: usize, _: bool) -> f64 {
        1.0 + 6.0 * (self.rounds as f64 + 1.0)
    }
}

/// The deviators-only profile `deviation` plays in a cascade of `rounds`
/// premium rounds.
fn cascade_profile(deviation: &BootstrapDeviation, rounds: u32) -> BTreeMap<PartyId, Strategy> {
    deviators([ALICE, BOB], &deviation.profile(rounds))
}

/// A sweep over the deviation space of a bootstrapped premium cascade: the
/// all-compliant run plus, per party and per level, a walk-away, a
/// deadline-edge (procrastinated) deposit and a wrong-preimage redemption
/// attempt — the cascade's projection of the `stop_after × timing × faults`
/// axes, in [`BootstrapDeviation::all`]'s order.
///
/// `1 + 6·(rounds + 1)` scenarios per configuration.
pub type BootstrapSweep = Sweep<BootstrapConfig>;

impl Sweep<BootstrapConfig> {
    /// Sweeps the cascade of `a` against `b` with premium ratio `ratio`
    /// and `rounds` premium rounds.
    pub fn new(a: u128, b: u128, ratio: u128, rounds: u32) -> Self {
        let profiles = BootstrapDeviation::all(rounds)
            .iter()
            .map(|deviation| cascade_profile(deviation, rounds))
            .collect();
        Self::of(
            format!("bootstrap a={a}, b={b}, ratio={ratio}, rounds={rounds}"),
            vec![BootstrapConfig::new(a, b, ratio, rounds)],
            ProfileTable::List(profiles),
        )
    }
}

// ---------------------------------------------------------------------------
// Auctions (§9).
// ---------------------------------------------------------------------------

impl Checked for AuctionConfig {
    fn players(&self) -> Vec<(PartyId, usize)> {
        std::iter::once(AUCTIONEER)
            .chain(self.bidders())
            .map(|party| (party, auction::SCRIPT_STEPS))
            .collect()
    }

    fn delta(&self) -> u64 {
        self.delta_blocks
    }

    /// Lemma 8's no-bid-stolen guarantee (blamed on the deviator when there
    /// is exactly one) plus conservation.
    fn violations(
        &self,
        report: &AuctionReport,
        profile: Profile<'_>,
    ) -> Vec<(PartyId, &'static str)> {
        let mut violations = Vec::new();
        if !report.no_bid_stolen {
            let parties = self.players().into_iter().map(|(party, _)| party);
            let deviator = deviators(parties, profile).into_keys().next();
            violations.push((deviator.unwrap_or(WHOLE_RUN), "no-bid-stolen"));
        }
        if !report.payoffs.conserved() {
            violations.push((WHOLE_RUN, "conservation"));
        }
        violations
    }

    fn label(&self, profile: Profile<'_>) -> String {
        let parties = self.players().into_iter().map(|(party, _)| party);
        format!(" {:?} with profile {:?}", self.auctioneer, deviators(parties, profile))
    }

    fn scenario(
        &self,
        variant: usize,
        profile: BTreeMap<PartyId, Strategy>,
        _realism: Option<SwapRealism>,
    ) -> SampledScenario {
        SampledScenario::Auction { behaviour: variant, profile }
    }
}

/// The auction sweep: every auctioneer behaviour combined with every
/// single-party deviation from the full `stop_after × timing × faults`
/// space of the three-step auction scripts.
///
/// Per behaviour: the all-compliant profile plus each party playing each
/// non-compliant strategy — `3 × (1 + parties × (|space| − 1))` scenarios.
pub type AuctionSweep = Sweep<AuctionConfig>;

impl Default for Sweep<AuctionConfig> {
    fn default() -> Self {
        Self::new(AuctionConfig::default())
    }
}

/// Auctioneer behaviours the auction families range over.
pub(crate) const BEHAVIOURS: [AuctioneerBehaviour; 3] = [
    AuctioneerBehaviour::DeclareHighBidder,
    AuctioneerBehaviour::DeclareLowBidder,
    AuctioneerBehaviour::Abandon,
];

/// `config` under each of [`BEHAVIOURS`], in order. Each behaviour changes
/// the compliant trajectory, so each is its own prefix variant.
pub(crate) fn auction_variants(config: &AuctionConfig) -> Vec<AuctionConfig> {
    BEHAVIOURS.iter().map(|&auctioneer| AuctionConfig { auctioneer, ..config.clone() }).collect()
}

impl Sweep<AuctionConfig> {
    /// Sweeps the given auction configuration (the `auctioneer` field is
    /// overridden per variant).
    pub fn new(config: AuctionConfig) -> Self {
        Sweep { variants: auction_variants(&config), ..Self::at_most("auction", config, 1) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use protocols::multi_party::figure3_config;

    #[test]
    fn two_party_total_is_the_per_party_product() {
        let gen = TwoPartySweep::hedged(TwoPartyConfig::default());
        let space = two_party::strategy_space().len();
        assert_eq!(gen.total(), space * space);
        assert_eq!(gen.family(), "hedged two-party swap");
        // The base swap sweeps its own (three-step) exact-length space so
        // behaviourally compliant stop-points are not double-counted.
        let base = TwoPartySweep::base(TwoPartyConfig::default());
        let base_space = two_party::base_strategy_space().len();
        assert!(base_space < space);
        assert_eq!(base.total(), base_space * base_space);
        assert_eq!(base.family(), "base two-party swap");
    }

    #[test]
    fn full_deal_sweep_total_is_the_per_party_product() {
        let gen = DealSweep::full("figure3", figure3_config());
        let space = deal::strategy_space().len();
        assert_eq!(gen.total(), space.pow(3));
        // Index 0 is the all-compliant profile; the last index is everyone
        // playing the last strategy of the enumerated space.
        assert!(gen.profile(0).is_empty());
        let last = gen.profile(gen.total() - 1);
        assert_eq!(last.len(), 3);
        let last_strategy = *deal::strategy_space().last().expect("space is non-empty");
        assert!(last.values().all(|s| *s == last_strategy));
    }

    #[test]
    fn bounded_deal_sweep_total_matches_the_closed_form() {
        let deviating = deal::strategy_space().len() - 1;
        for max_deviators in 0..=3usize {
            let gen = DealSweep::at_most("figure3", figure3_config(), max_deviators);
            let expected: usize =
                (0..=max_deviators.min(3)).map(|j| binomial(3, j) * deviating.pow(j as u32)).sum();
            assert_eq!(gen.total(), expected, "max_deviators={max_deviators}");
            // Every profile respects the budget.
            for index in 0..gen.total() {
                assert!(gen.profile(index).len() <= max_deviators);
            }
        }
    }

    #[test]
    fn bootstrap_and_auction_totals() {
        let gen = BootstrapSweep::new(1_000, 1_000, 10, 2);
        assert_eq!(gen.total(), 1 + 6 * 3, "stop/late/wrong-secret per party per level");
        // The profile table follows the canonical enumeration.
        let canonical = BootstrapDeviation::all(2);
        assert_eq!(gen.total(), canonical.len());
        for (index, deviation) in canonical.iter().enumerate() {
            let (expected, profile) = (deviation.profile(2), gen.profile(index));
            for party in [ALICE, BOB] {
                assert_eq!(script::profile(&profile)(party), expected(party), "index {index}");
            }
            assert_eq!(profile.keys().next().copied(), deviation.party(), "index {index}");
        }
        // 3 behaviours × (all-compliant + 3 parties × 30 deviations).
        let deviating = protocols::auction::strategy_space().len() - 1;
        assert_eq!(AuctionSweep::default().total(), 3 * (1 + 3 * deviating));
    }

    #[test]
    fn broker_sweep_matches_the_deal_closed_form() {
        let deviating = deal::strategy_space().len() - 1;
        let broker = BrokerSweep::at_most(&protocols::broker::BrokerConfig::default(), 2);
        assert_eq!(broker.family(), "brokered sale");
        assert_eq!(broker.total(), 1 + 3 * deviating + 3 * deviating * deviating);
        assert!(broker.profile(0).is_empty());
    }

    #[test]
    fn reduced_family_sizes_match_their_closed_forms() {
        use protocols::multi_party::{clique_config, cycle_config};
        let deviating = deal::strategy_space().len() - 1;
        // A cycle's pinned leader kills every rotation, so only POR
        // reduces: the 4-cycle has exactly two non-adjacent party pairs
        // ((0,2) and (1,3)) and each contributes a full strategy block.
        let cycle4 = DealSweep::reduced("cycle-4", cycle_config(4), 2);
        assert!(cycle4.is_reduced());
        assert_eq!(cycle4.symmetry_group().len(), 1, "leader pin leaves only the identity");
        assert_eq!(cycle4.pruned_strategies(), 2 * deviating * deviating);
        assert_eq!(cycle4.total(), 1 + 4 * deviating + 4 * deviating * deviating);
        assert_eq!(cycle4.strategies(), bounded_profile_count(4, deviating, 2));
        // A clique's greedy leader set is all parties but one; its setwise
        // stabilizer is the full symmetric group on the leaders. Party
        // orbits: leaders and the non-leader. Pair orbits: leader–leader
        // (swappable, so unordered strategy pairs) and leader–non-leader.
        // This count is independent of n ≥ 3.
        let clique4 = DealSweep::reduced("clique-4", clique_config(4), 2);
        assert_eq!(clique4.symmetry_group().len(), 6);
        assert_eq!(clique4.pruned_strategies(), 0, "cliques have no non-adjacent pairs");
        assert_eq!(
            clique4.total(),
            1 + 2 * deviating + deviating * (deviating + 1) / 2 + deviating * deviating
        );
        assert_eq!(clique4.strategies(), bounded_profile_count(4, deviating, 2));
        let clique6 = DealSweep::reduced("clique-6", clique_config(6), 2);
        assert_eq!(clique6.total(), clique4.total(), "clique representative count is n-free");
        assert_eq!(clique6.strategies(), bounded_profile_count(6, deviating, 2));
    }

    #[test]
    fn reduced_orbit_weights_match_brute_force_on_small_graphs() {
        use protocols::multi_party::{clique_config, cycle_config, random_config};
        for (name, config) in [
            ("cycle-3", cycle_config(3)),
            ("cycle-4", cycle_config(4)),
            ("clique-3", clique_config(3)),
            ("clique-4", clique_config(4)),
            ("random-4-3-7", random_config(4, 3, 7)),
        ] {
            let reduced = DealSweep::reduced(name, config.clone(), 2);
            let unreduced = DealSweep::at_most(name, config, 2);
            assert_eq!(reduced.strategies(), unreduced.total(), "{name}");
            let weighted: usize = (0..reduced.total()).map(|i| reduced.weight(i)).sum();
            assert_eq!(weighted + reduced.pruned_strategies(), reduced.strategies(), "{name}");
            // Walk the whole unreduced space: every profile is either
            // POR-pruned or lands on exactly one representative through a
            // witnessing automorphism, and the per-representative tallies
            // recover the orbit weights.
            let mut tally = vec![0usize; reduced.total()];
            let mut pruned = 0usize;
            for index in 0..unreduced.total() {
                let profile = unreduced.profile(index);
                if reduced.por_pruned(&profile) {
                    pruned += 1;
                    assert!(
                        reduced.canonicalize(&profile).is_none(),
                        "{name}: pruned orbits must have no representative"
                    );
                    continue;
                }
                let (rep, perm) = reduced
                    .canonicalize(&profile)
                    .unwrap_or_else(|| panic!("{name}: no representative for {profile:?}"));
                assert_eq!(apply_automorphism(perm, &profile), reduced.profile(rep), "{name}");
                tally[rep] += 1;
            }
            assert_eq!(pruned, reduced.pruned_strategies(), "{name}");
            for (index, &count) in tally.iter().enumerate() {
                assert_eq!(count, reduced.weight(index), "{name} index {index}");
            }
        }
    }

    #[test]
    fn binomial_basics() {
        assert_eq!(binomial(6, 0), 1);
        assert_eq!(binomial(6, 2), 15);
        assert_eq!(binomial(3, 3), 1);
        assert_eq!(binomial(2, 5), 0);
    }
}
