//! Premium bootstrapping (§6): the Figure 2 cascade of hedged premium
//! deposits, scripted as a [`Protocol`].
//!
//! The arithmetic of how many rounds are needed and what each level holds
//! lives in [`swapgraph::bootstrap`]. [`BootstrapConfig`] runs that plan on
//! chain: every level's two deposits sit in [`HedgedEscrow`]s, and the
//! level-`k` deposits are the premiums that protect the level-`k − 1`
//! ones. A party that skips its level-`k − 1` deposit forfeits its level-`k`
//! deposit to the counterparty; otherwise every premium level is refunded
//! after the horizon and only the level-0 principals change hands.

use chainsim::{Action, Amount, AssetId, ContractAddr, PartyId, Tally, Time, World};
use contracts::{
    HedgedEscrow, HedgedEscrowMsg, HedgedEscrowParams, HedgedPremiumState, HedgedPrincipalState,
};
use cryptosim::Secret;
use swapgraph::bootstrap::{bootstrap_plan, BootstrapPlan};

use crate::script::{
    DelayVector, Fault, Profile, Protocol, ScriptedParty, Step, StepOutcome, Strategy,
    MAX_DELAY_STEPS,
};
use crate::two_party::{hedged_contract, settle_step};

/// Alice's party id.
pub const ALICE: PartyId = PartyId(0);
/// Bob's party id.
pub const BOB: PartyId = PartyId(1);

/// A deviation point of the cascade, in §6's vocabulary.
///
/// Each variant names one axis of [`Strategy`] at the script step of one
/// level (see [`BootstrapDeviation::profile`]): walking away, last-instant
/// timing and garbage emissions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BootstrapDeviation {
    /// Both parties comply at every level.
    None,
    /// The named party stops before its step at the given level (levels
    /// are numbered as in [`BootstrapPlan`]: high = outermost), so it never
    /// makes that level's deposit: [`Strategy::stop_after`] the steps of
    /// the levels above.
    StopAtLevel {
        /// The deviating party.
        party: PartyId,
        /// The level at which it stops.
        level: u32,
    },
    /// The named party holds every emission of its step at the given level
    /// to the last legal tick (a one-step [`crate::script::Timing::Delay`]).
    /// A late depositor is still conforming, so the cascade must complete
    /// with exactly the compliant payoffs.
    LateAtLevel {
        /// The deviating party.
        party: PartyId,
        /// The level whose emissions are delayed.
        level: u32,
    },
    /// The named party sends a garbage message alongside every call of its
    /// first emission at the given level ([`Fault::Garbage`]). The
    /// contracts reject it, so the cascade must complete with exactly the
    /// compliant payoffs. (The escrow's rejection of a wrong preimage
    /// itself is pinned by the `contracts` unit tests and raw-call fuzz
    /// harness.)
    WrongSecretAtLevel {
        /// The deviating party.
        party: PartyId,
        /// The level at which the garbage volley is sent.
        level: u32,
    },
}

impl BootstrapDeviation {
    /// The level at which this deviation first acts, if it is a deviation.
    pub fn level(&self) -> Option<u32> {
        match self {
            BootstrapDeviation::None => None,
            BootstrapDeviation::StopAtLevel { level, .. }
            | BootstrapDeviation::LateAtLevel { level, .. }
            | BootstrapDeviation::WrongSecretAtLevel { level, .. } => Some(*level),
        }
    }

    /// The deviating party, if any.
    pub fn party(&self) -> Option<PartyId> {
        match self {
            BootstrapDeviation::None => None,
            BootstrapDeviation::StopAtLevel { party, .. }
            | BootstrapDeviation::LateAtLevel { party, .. }
            | BootstrapDeviation::WrongSecretAtLevel { party, .. } => Some(*party),
        }
    }

    /// Enumerates the full deviation space of a cascade with `rounds`
    /// premium rounds: the compliant run plus, per party and per level, one
    /// deviation of each kind. `1 + 6·(rounds + 1)` entries, the exact
    /// space the bootstrap sweeps range over.
    pub fn all(rounds: u32) -> Vec<BootstrapDeviation> {
        let mut deviations = vec![BootstrapDeviation::None];
        for party in [ALICE, BOB] {
            for level in 0..=rounds {
                deviations.push(BootstrapDeviation::StopAtLevel { party, level });
                deviations.push(BootstrapDeviation::LateAtLevel { party, level });
                deviations.push(BootstrapDeviation::WrongSecretAtLevel { party, level });
            }
        }
        deviations
    }

    /// The strategy profile this deviation plays in a cascade of `rounds`
    /// premium rounds; the other party complies.
    ///
    /// # Panics
    ///
    /// Panics if the level exceeds `rounds`, or if a [`LateAtLevel`]
    /// deviation's step lies past the [`MAX_DELAY_STEPS`] a
    /// [`DelayVector`] can address (levels more than seven below the
    /// outermost one), rather than running it as a compliant profile.
    ///
    /// [`LateAtLevel`]: BootstrapDeviation::LateAtLevel
    pub fn profile(&self, rounds: u32) -> impl Fn(PartyId) -> Strategy {
        let deviant = self.party().zip(self.level()).map(|(party, level)| {
            assert!(level <= rounds, "level {level} is outside a {rounds}-round cascade");
            let step = (rounds - level) as usize;
            let strategy = match self {
                BootstrapDeviation::StopAtLevel { .. } => Strategy::stop_after(step),
                BootstrapDeviation::LateAtLevel { .. } => {
                    assert!(
                        step < MAX_DELAY_STEPS,
                        "a late deposit at level {level} of a {rounds}-round cascade is past \
                         the steps a delay vector can address"
                    );
                    let mut delays = DelayVector::ZERO;
                    delays.set(step, u8::MAX);
                    Strategy::compliant().with_delays(delays)
                }
                BootstrapDeviation::WrongSecretAtLevel { .. } => {
                    Strategy::compliant().with_fault(Fault::Garbage { step })
                }
                BootstrapDeviation::None => Strategy::compliant(),
            };
            (party, strategy)
        });
        move |party| match deviant {
            Some((deviator, strategy)) if deviator == party => strategy,
            _ => Strategy::compliant(),
        }
    }
}

/// The outcome of one bootstrapped cascade.
#[derive(Clone, Debug)]
pub struct BootstrapRunReport {
    /// The plan that was executed.
    pub plan: BootstrapPlan,
    /// Net native-currency payoff for Alice.
    pub alice_payoff: i128,
    /// Net native-currency payoff for Bob.
    pub bob_payoff: i128,
    /// The deepest level whose deposits both completed (0 means the
    /// principals themselves were exchanged; `rounds + 1` means not even
    /// the outermost level completed).
    pub deepest_completed_level: u32,
    /// Whether the compliant parties' payoffs meet the §6 guarantee: when
    /// nobody walks away or crashes, exactly the compliant payoffs;
    /// otherwise each compliant party ends with either no loss or its side
    /// of the completed swap.
    pub loss_bounded_by_initial_risk: bool,
}

/// A bootstrapped cascade of `a` against `b` with premium ratio `ratio`
/// and `rounds` premium rounds, run on an apricot and a banana chain.
///
/// Every level's escrows are published up front with deadlines in their
/// own `6·Δ` slot of the schedule, the outermost level first. Levels run in that order, each as soon as the one above
/// completes: both parties open the premium slot of the counterparty's
/// escrow, then deposit into their own, and the level completes once both
/// deposits are in. A party whose counterparty misses the level's escrow
/// deadline redeems the defaulter's deposit of the level above as
/// compensation, and the cascade halts. After level 0 both sides redeem
/// the principals, and once the horizon passes the parties settle every
/// escrow still holding funds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BootstrapConfig {
    /// Alice's principal `A`.
    pub a: u128,
    /// Bob's principal `B`.
    pub b: u128,
    /// The per-round premium ratio `P`.
    pub ratio: u128,
    /// Premium rounds (levels above the principal swap).
    pub rounds: u32,
}

impl BootstrapConfig {
    /// The cascade of `a` against `b` at premium ratio `ratio` with
    /// `rounds` premium rounds.
    pub fn new(a: u128, b: u128, ratio: u128, rounds: u32) -> Self {
        BootstrapConfig { a, b, ratio, rounds }
    }

    /// The synchrony bound Δ, in blocks.
    pub fn delta_blocks(&self) -> u64 {
        2
    }

    /// The blocks of one level's slot: `6·Δ`.
    pub fn level_blocks(&self) -> u64 {
        6 * self.delta_blocks()
    }

    /// The redeem deadline of every escrow: one slot past the innermost
    /// level's, `6·Δ·(rounds + 2)`.
    pub fn horizon(&self) -> Time {
        Time(u64::from(self.rounds + 2) * self.level_blocks())
    }

    /// The premium and escrow deadlines of `level`'s two escrows: Δ and 2Δ
    /// into the level's slot.
    fn level_deadlines(&self, level: u32) -> (Time, Time) {
        let start = Time(u64::from(self.rounds - level) * self.level_blocks());
        (start.plus(self.delta_blocks()), start.plus(2 * self.delta_blocks()))
    }

    /// `party`'s script step at `level`: one per level, outermost first.
    fn level_step(&self, setup: &BootstrapSetup, party: PartyId, level: u32) -> Step {
        let (own, counter) = setup.escrows_of(party, level);
        let above = (level < self.rounds).then(|| setup.escrows_of(party, level + 1));
        let (premium_deadline, escrow_deadline) = self.level_deadlines(level);
        let secret = setup.secret.clone();
        Step::new("bootstrap: level deposit", move |world: &World| {
            let escrowed = |addr| hedged_contract(world, addr).escrowed_at().is_some();
            // Each level builds on a completed level above; after a
            // default the cascade halts.
            if above.is_some_and(|(own_above, counter_above)| {
                !(escrowed(own_above) && escrowed(counter_above))
            }) {
                return StepOutcome::Complete(vec![]);
            }
            if escrowed(own) && escrowed(counter) {
                return StepOutcome::Complete(vec![]);
            }
            let (mine, theirs) = (hedged_contract(world, own), hedged_contract(world, counter));
            if world.now().has_reached(escrow_deadline) {
                // The counterparty defaulted if its deposit is missing
                // although this party opened its slot and either deposited
                // or never had its own slot opened.
                let defaulted = !escrowed(counter)
                    && theirs.premium_state() != HedgedPremiumState::NotDeposited
                    && (escrowed(own) || mine.premium_state() == HedgedPremiumState::NotDeposited);
                let claim = above.filter(|_| defaulted).map(|(_, guard)| {
                    Action::call(guard, HedgedEscrowMsg::Redeem { secret: secret.clone() })
                });
                return StepOutcome::Complete(claim.into_iter().collect());
            }
            let mut calls = Vec::new();
            if theirs.premium_state() == HedgedPremiumState::NotDeposited
                && world.now().is_before(premium_deadline)
            {
                calls.push(Action::call(counter, HedgedEscrowMsg::DepositPremium));
            }
            if mine.premium_state() == HedgedPremiumState::Held && !escrowed(own) {
                calls.push(Action::call(own, HedgedEscrowMsg::EscrowPrincipal));
            }
            if calls.is_empty() {
                StepOutcome::WaitUntil(escrow_deadline)
            } else {
                StepOutcome::Progress(calls)
            }
        })
        .with_deadline(escrow_deadline)
    }

    /// `party`'s whole script: a step per level, then the principal
    /// redemption and settlement.
    fn steps(&self, setup: &BootstrapSetup, party: PartyId) -> Vec<Step> {
        let mut steps: Vec<Step> =
            (0..=self.rounds).rev().map(|level| self.level_step(setup, party, level)).collect();
        let (own, counter) = setup.escrows_of(party, 0);
        let secret = setup.secret.clone();
        steps.push(
            Step::new("bootstrap: redeem principal", move |world: &World| {
                let swapped = hedged_contract(world, own).escrowed_at().is_some()
                    && hedged_contract(world, counter).principal_state()
                        == HedgedPrincipalState::Held;
                StepOutcome::Complete(if swapped {
                    vec![Action::call(counter, HedgedEscrowMsg::Redeem { secret: secret.clone() })]
                } else {
                    vec![]
                })
            })
            .with_deadline(self.horizon()),
        );
        // Bob settles a round after Alice: in a compliant run he finds
        // nothing left, and if Alice walked away he settles for both.
        let settle_at = if party == ALICE { self.horizon() } else { self.horizon().plus(1) };
        let escrows = setup.escrows.iter().flatten().copied().collect();
        steps.push(settle_step("bootstrap: settle", escrows, settle_at));
        steps
    }
}

/// What a cascade's setup leaves behind: the plan, every level's escrows,
/// the secret and the balances before the first round.
#[derive(Clone, Debug)]
pub struct BootstrapSetup {
    plan: BootstrapPlan,
    natives: [AssetId; 2],
    /// Per level: Alice's deposit escrow (banana), Bob's (apricot).
    escrows: Vec<[ContractAddr; 2]>,
    secret: Secret,
    /// Alice's and Bob's holdings before the first round.
    before: [i128; 2],
}

impl BootstrapSetup {
    /// `party`'s own escrow at `level`, then the counterparty's.
    fn escrows_of(&self, party: PartyId, level: u32) -> (ContractAddr, ContractAddr) {
        let [alice, bob] = self.escrows[level as usize];
        if party == ALICE {
            (alice, bob)
        } else {
            (bob, alice)
        }
    }
}

/// Alice's and Bob's native-currency holdings across both chains.
fn holdings(world: &World, natives: &[AssetId; 2]) -> [i128; 2] {
    [ALICE, BOB].map(|party| {
        natives.iter().map(|asset| world.party_balance(party, *asset).value() as i128).sum()
    })
}

impl Protocol for BootstrapConfig {
    type Setup = BootstrapSetup;
    type Report = BootstrapRunReport;

    fn setup(&self, world: &mut World) -> BootstrapSetup {
        let plan = bootstrap_plan(self.a, self.b, self.ratio, self.rounds);
        world.reset(1);
        let apricot = world.add_chain("apricot");
        let banana = world.add_chain("banana");
        let natives = [world.chain(apricot).native_asset(), world.chain(banana).native_asset()];
        // Endow both parties with enough native currency for every level.
        let alice_total: u128 = plan.levels.iter().map(|l| l.alice_deposit).sum();
        let bob_total: u128 = plan.levels.iter().map(|l| l.bob_deposit).sum();
        world.chain_mut(banana).mint(ALICE, natives[1], Amount::new(alice_total.max(1)));
        world.chain_mut(apricot).mint(BOB, natives[0], Amount::new(bob_total.max(1)));
        let before = holdings(world, &natives);

        // Alice's deposit of each level lives on the banana chain (if she
        // later defaults, Bob redeems it there) and Bob's on apricot. The
        // premium slots carry no value: they only order the deposits.
        let secret = Secret::from_seed(0xB00757);
        let mut publish = |level: u32, escrower: PartyId, amount: u128| {
            let (chain, redeemer, asset) = if escrower == ALICE {
                (banana, BOB, natives[1])
            } else {
                (apricot, ALICE, natives[0])
            };
            let (premium_deadline, escrow_deadline) = self.level_deadlines(level);
            let params = HedgedEscrowParams {
                escrower,
                redeemer,
                principal_asset: asset,
                principal_amount: Amount::new(amount),
                premium_asset: asset,
                premium_amount: Amount::ZERO,
                hashlock: secret.hashlock(),
                premium_deadline,
                escrow_deadline,
                redeem_deadline: self.horizon(),
            };
            world.publish(chain, Box::new(HedgedEscrow::new(params)))
        };
        let escrows = plan
            .levels
            .iter()
            .map(|l| {
                [publish(l.level, ALICE, l.alice_deposit), publish(l.level, BOB, l.bob_deposit)]
            })
            .collect();
        BootstrapSetup { plan, natives, escrows, secret, before }
    }

    fn script(&self, setup: &BootstrapSetup, profile: Profile<'_>) -> Vec<ScriptedParty> {
        [ALICE, BOB]
            .into_iter()
            .map(|party| {
                ScriptedParty::new(party, self.steps(setup, party), profile(party))
                    .with_delta(self.delta_blocks())
            })
            .collect()
    }

    fn max_rounds(&self, _: &BootstrapSetup) -> u64 {
        self.horizon().height() + 2 * self.delta_blocks() + 4
    }

    fn report(
        &self,
        world: &World,
        setup: &BootstrapSetup,
        _: Tally,
        profile: Profile<'_>,
    ) -> BootstrapRunReport {
        let [alice, bob] = holdings(world, &setup.natives);
        let (alice_payoff, bob_payoff) = (alice - setup.before[0], bob - setup.before[1]);
        let both_in = |escrows: &&[ContractAddr; 2]| {
            escrows.iter().all(|addr| hedged_contract(world, *addr).escrowed_at().is_some())
        };
        // Levels complete from the outermost inwards until the first miss.
        let completed = setup.escrows.iter().rev().take_while(both_in).count();
        // Each side's payoff when the principals change hands.
        let trade = self.b as i128 - self.a as i128;
        let parties = [(profile(ALICE), alice_payoff, trade), (profile(BOB), bob_payoff, -trade)];
        // Deadline-edge timing and rejected garbage must be outcome-neutral:
        // unless someone walks away or crashes, the cascade completes with
        // exactly the compliant payoffs. Otherwise no compliant party may
        // end worse off than before, unless the swap itself went through.
        let completes = parties.iter().all(|(s, ..)| {
            s.stop_after.is_none() && matches!(s.fault, Fault::None | Fault::Garbage { .. })
        });
        let loss_bounded_by_initial_risk = if completes {
            parties.iter().all(|(_, payoff, traded)| payoff == traded)
        } else {
            parties
                .iter()
                .all(|(s, payoff, traded)| !s.is_compliant() || *payoff >= 0 || payoff == traded)
        };
        BootstrapRunReport {
            plan: setup.plan.clone(),
            alice_payoff,
            bob_payoff,
            deepest_completed_level: self.rounds + 1 - completed as u32,
            loss_bounded_by_initial_risk,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(config: BootstrapConfig, deviation: BootstrapDeviation) -> BootstrapRunReport {
        config.run(&deviation.profile(config.rounds), &mut World::new(1))
    }

    #[test]
    fn compliant_cascade_completes_all_levels() {
        let report = run(BootstrapConfig::new(10_000, 10_000, 10, 3), BootstrapDeviation::None);
        assert_eq!(report.deepest_completed_level, 0);
        assert!(report.loss_bounded_by_initial_risk);
        // The deposits net out: what Alice redeems from Bob's side equals
        // what Bob redeems from Alice's side at each level, except the
        // asymmetric (kA + B)/P^k vs A/P^k split.
        assert_eq!(report.alice_payoff + report.bob_payoff, 0);
    }

    #[test]
    fn deviations_at_every_level_leave_compliant_party_bounded() {
        let config = BootstrapConfig::new(100_000, 100_000, 10, 3);
        for level in 0..=3u32 {
            for party in [ALICE, BOB] {
                let report = run(config, BootstrapDeviation::StopAtLevel { party, level });
                assert!(
                    report.loss_bounded_by_initial_risk,
                    "deviation by {party} at level {level}: {report:?}"
                );
            }
        }
    }

    #[test]
    fn deviations_map_onto_one_step_of_the_strategy_axes() {
        let rounds = 3;
        let step_of = |level: u32| (rounds - level) as usize;
        for level in 0..=rounds {
            let stop = BootstrapDeviation::StopAtLevel { party: BOB, level }.profile(rounds);
            assert_eq!(stop(BOB), Strategy::stop_after(step_of(level)));
            assert_eq!(stop(ALICE), Strategy::compliant());
            let late = BootstrapDeviation::LateAtLevel { party: ALICE, level }.profile(rounds);
            let mut delays = DelayVector::ZERO;
            delays.set(step_of(level), u8::MAX);
            assert_eq!(late(ALICE), Strategy::compliant().with_delays(delays));
            let wrong = BootstrapDeviation::WrongSecretAtLevel { party: ALICE, level };
            assert_eq!(
                wrong.profile(rounds)(ALICE),
                Strategy::compliant().with_fault(Fault::Garbage { step: step_of(level) })
            );
        }
        assert_eq!(BootstrapDeviation::None.profile(rounds)(ALICE), Strategy::compliant());
    }

    #[test]
    fn walking_away_after_the_swap_leaves_the_survivor_its_trade() {
        // Alice skips settlement, or crashes at level 0 and recovers in
        // time: Bob settles for both and the trade stands.
        let config = BootstrapConfig::new(5_000, 20_000, 10, 1);
        for alice in
            [Strategy::stop_after(3), Strategy::compliant().with_fault(Fault::Crash { step: 1 })]
        {
            let report = config.run(
                &|p| if p == ALICE { alice } else { Strategy::compliant() },
                &mut World::new(1),
            );
            assert_eq!((report.alice_payoff, report.bob_payoff), (15_000, -15_000), "{alice}");
            assert!(report.loss_bounded_by_initial_risk, "{alice}");
        }
    }

    #[test]
    #[should_panic(expected = "past the steps a delay vector can address")]
    fn late_deposits_past_the_delay_vector_are_rejected() {
        let _ = BootstrapDeviation::LateAtLevel { party: ALICE, level: 0 }
            .profile(MAX_DELAY_STEPS as u32);
    }

    #[test]
    fn every_level_fits_its_static_slot() {
        for rounds in [0u32, 1, 3, 5, 10] {
            let config = BootstrapConfig::new(1_000_000, 1_000_000, 100, rounds);
            let (world, parties) = config.static_setup();
            let escrows: Vec<&HedgedEscrow> = world
                .chains()
                .flat_map(|chain| chain.contracts())
                .map(|c| c.as_any().downcast_ref::<HedgedEscrow>().expect("hedged escrow"))
                .collect();
            assert_eq!(escrows.len(), 2 * (rounds as usize + 1));
            for escrow in escrows {
                let p = escrow.params();
                assert!(p.premium_deadline < p.escrow_deadline);
                assert!(p.escrow_deadline.plus(config.level_blocks()) <= config.horizon());
                assert_eq!(p.redeem_deadline, config.horizon());
            }
            assert!(parties.iter().all(|p| p.total_steps() == rounds as usize + 3));
        }
    }
}
