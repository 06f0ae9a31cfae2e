//! The hedged auction protocol of §9.
//!
//! Alice auctions tickets to `n` bidders. Bids are placed on the coin chain;
//! Alice declares the winner by publishing that bidder's hashkey on both
//! chains; bidders cross-forward hashkeys during the challenge phase; after
//! the challenge deadline both contracts settle. Alice endows the coin
//! contract with `n·p` premiums that compensate the bidders if she walks
//! away or cheats (Lemmas 7–8).

use std::collections::BTreeMap;

use chainsim::{Action, Amount, AssetId, CallDesc, ContractAddr, PartyId, Time, World};
use contracts::{
    AuctionCoinContract, AuctionCoinMsg, AuctionOutcome, AuctionParams, AuctionTicketContract,
    AuctionTicketMsg,
};
use cryptosim::Secret;

use crate::outcome::{BalanceSnapshot, Payoffs};
use crate::script::{Profile, Protocol, ScriptedParty, Step, StepOutcome, Strategy};

/// The auctioneer's party id.
pub const AUCTIONEER: PartyId = PartyId(0);

/// The number of scripted steps in every auction role (auctioneer:
/// endow/declare/settle; bidder: bid/challenge/settle).
pub const SCRIPT_STEPS: usize = 3;

/// Every distinct per-party strategy of the auction: the full
/// `stop_after × timing × faults` product over the three-step scripts (see
/// [`Strategy::all`] for the dedup rules).
pub fn strategy_space() -> Vec<Strategy> {
    Strategy::all(SCRIPT_STEPS)
}

/// How the auctioneer behaves in the declaration phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AuctioneerBehaviour {
    /// Declare the true high bidder (honest).
    DeclareHighBidder,
    /// Declare the low bidder (cheating).
    DeclareLowBidder,
    /// Never declare anyone (abandon the auction).
    Abandon,
}

/// Configuration of an auction run.
#[derive(Clone, Debug)]
pub struct AuctionConfig {
    /// The bids each bidder will place (bidder `i` is `PartyId(i + 1)`); a
    /// `None` entry models a bidder that abstains.
    pub bids: Vec<Option<Amount>>,
    /// Number of tickets auctioned.
    pub tickets: Amount,
    /// The per-bidder premium `p`.
    pub premium: Amount,
    /// The synchrony bound Δ in blocks.
    pub delta_blocks: u64,
    /// The auctioneer's declaration behaviour.
    pub auctioneer: AuctioneerBehaviour,
}

impl Default for AuctionConfig {
    fn default() -> Self {
        AuctionConfig {
            bids: vec![Some(Amount::new(60)), Some(Amount::new(40))],
            tickets: Amount::new(1),
            premium: Amount::new(2),
            delta_blocks: 2,
            auctioneer: AuctioneerBehaviour::DeclareHighBidder,
        }
    }
}

impl AuctionConfig {
    /// The bidder party ids.
    pub fn bidders(&self) -> Vec<PartyId> {
        (0..self.bids.len() as u32).map(|i| PartyId(i + 1)).collect()
    }

    /// The §9 ladder both contracts are published with: bids close at `Δ`,
    /// challenges at `6Δ`.
    pub fn deadlines(&self) -> (Time, Time) {
        (Time(self.delta_blocks), Time(6 * self.delta_blocks))
    }
}

/// The outcome of an auction run.
#[derive(Clone, Debug)]
pub struct AuctionReport {
    /// The coin-chain settlement outcome (if the contract settled).
    pub outcome: Option<AuctionOutcome>,
    /// The bidder who received the tickets, if any.
    pub ticket_winner: Option<PartyId>,
    /// Per-bidder coin payoffs.
    pub bidder_coin_payoffs: BTreeMap<PartyId, i128>,
    /// Per-bidder ticket payoffs.
    pub bidder_ticket_payoffs: BTreeMap<PartyId, i128>,
    /// The auctioneer's coin payoff.
    pub auctioneer_coin_payoff: i128,
    /// True if no compliant bidder had its bid stolen (Lemma 8): every
    /// compliant bidder either got the tickets or a non-negative coin payoff.
    pub no_bid_stolen: bool,
    /// True if the auction aborted and every compliant bidder that bid was
    /// compensated with at least `p`.
    pub bidders_compensated: bool,
    /// Raw payoffs.
    pub payoffs: Payoffs,
    /// Rejected actions during the run.
    pub failed_actions: usize,
    /// Synchronous rounds executed.
    pub rounds: usize,
}

/// What an auction's setup leaves behind: both contracts, the bidders'
/// secrets and the balances before the first round.
#[derive(Clone, Debug)]
pub struct AuctionSetup {
    coin_addr: ContractAddr,
    ticket_addr: ContractAddr,
    coin: AssetId,
    ticket: AssetId,
    secrets: BTreeMap<PartyId, Secret>,
    params: AuctionParams,
    /// The auctioneer, then every bidder.
    parties: Vec<PartyId>,
    before: BalanceSnapshot,
}

fn build(world: &mut World, config: &AuctionConfig) -> AuctionSetup {
    world.reset(1);
    let coin_chain = world.add_chain("coin-chain");
    let ticket_chain = world.add_chain("ticket-chain");
    let coin = world.register_asset("coin");
    let ticket = world.register_asset("ticket");

    let bidders = config.bidders();
    let total_premium = config.premium.scaled(bidders.len() as u128);
    world.chain_mut(coin_chain).mint(AUCTIONEER, coin, total_premium);
    world.chain_mut(ticket_chain).mint(AUCTIONEER, ticket, config.tickets);
    for (bidder, bid) in bidders.iter().zip(&config.bids) {
        if let Some(bid) = bid {
            world.chain_mut(coin_chain).mint(*bidder, coin, *bid);
        }
    }

    let mut secrets = BTreeMap::new();
    let mut hashlocks = Vec::new();
    for bidder in &bidders {
        let secret = Secret::from_seed(9000 + u64::from(bidder.0));
        hashlocks.push((*bidder, secret.hashlock()));
        secrets.insert(*bidder, secret);
    }

    let (bid_deadline, challenge_deadline) = config.deadlines();
    let params = AuctionParams {
        auctioneer: AUCTIONEER,
        bidders: bidders.clone(),
        coin_asset: coin,
        ticket_asset: ticket,
        ticket_amount: config.tickets,
        premium_per_bidder: config.premium,
        hashlocks,
        bid_deadline,
        challenge_deadline,
    };
    let coin_addr = world.publish_labeled(
        coin_chain,
        AUCTIONEER,
        "auction/coin",
        Box::new(AuctionCoinContract::new(params.clone())),
    );
    let ticket_addr = world.publish_labeled(
        ticket_chain,
        AUCTIONEER,
        "auction/ticket",
        Box::new(AuctionTicketContract::new(params.clone())),
    );
    let mut parties = vec![AUCTIONEER];
    parties.extend(bidders);
    let before = BalanceSnapshot::capture(world, &parties, &[coin, ticket]);
    AuctionSetup { coin_addr, ticket_addr, coin, ticket, secrets, params, parties, before }
}

fn coin_contract(world: &World, addr: ContractAddr) -> &AuctionCoinContract {
    world
        .chain(addr.chain)
        .contract_as::<AuctionCoinContract>(addr.contract)
        .expect("coin contract")
}

fn ticket_contract(world: &World, addr: ContractAddr) -> &AuctionTicketContract {
    world
        .chain(addr.chain)
        .contract_as::<AuctionTicketContract>(addr.contract)
        .expect("ticket contract")
}

fn auctioneer_steps(config: &AuctionConfig, setup: &AuctionSetup) -> Vec<Step> {
    let coin_addr = setup.coin_addr;
    let ticket_addr = setup.ticket_addr;
    let behaviour = config.auctioneer;
    let delta = config.delta_blocks;
    let secrets = setup.secrets.clone();
    let bid_deadline = setup.params.bid_deadline;
    let challenge_deadline = setup.params.challenge_deadline;
    vec![
        Step::new("auctioneer: endow premium and escrow tickets", move |_world: &World| {
            StepOutcome::Complete(vec![
                Action::call(
                    coin_addr,
                    AuctionCoinMsg::DepositPremium,
                    "Alice endows n·p premiums",
                ),
                Action::call(
                    ticket_addr,
                    AuctionTicketMsg::EscrowTickets,
                    "Alice escrows the tickets",
                ),
            ])
        })
        // The endowment must leave bidders a full Δ to observe it and still
        // bid strictly before the deadline, so its own legal window ends one
        // Δ earlier.
        .with_deadline(Time(bid_deadline.height().saturating_sub(delta))),
        Step::new("auctioneer: declare the winner", move |world: &World| {
            if world.now().has_reached(challenge_deadline) {
                return StepOutcome::Complete(vec![]);
            }
            if !world.now().has_reached(bid_deadline) {
                return StepOutcome::WaitUntil(bid_deadline);
            }
            let contract = coin_contract(world, coin_addr);
            let Some((high, _)) = contract.high_bidder() else {
                return StepOutcome::Complete(vec![]);
            };
            let declared = match behaviour {
                AuctioneerBehaviour::DeclareHighBidder => high,
                AuctioneerBehaviour::DeclareLowBidder => {
                    let low = contract
                        .bids()
                        .iter()
                        .min_by_key(|(_, amount)| **amount)
                        .map(|(p, _)| *p)
                        .unwrap_or(high);
                    low
                }
                AuctioneerBehaviour::Abandon => return StepOutcome::Complete(vec![]),
            };
            let secret = secrets[&declared].clone();
            StepOutcome::Complete(vec![
                Action::call(
                    coin_addr,
                    AuctionCoinMsg::SubmitHashkey { winner: declared, secret: secret.clone() },
                    CallDesc::Party {
                        prefix: "Alice declares ",
                        party: declared,
                        suffix: " on the coin chain",
                    },
                ),
                Action::call(
                    ticket_addr,
                    AuctionTicketMsg::SubmitHashkey { winner: declared, secret },
                    CallDesc::Party {
                        prefix: "Alice declares ",
                        party: declared,
                        suffix: " on the ticket chain",
                    },
                ),
            ])
        })
        .with_deadline(challenge_deadline),
        Step::new("auctioneer: settle", move |world: &World| {
            if !world.now().has_reached(challenge_deadline) {
                return StepOutcome::WaitUntil(challenge_deadline);
            }
            let mut actions = Vec::new();
            if coin_contract(world, coin_addr).outcome().is_none() {
                actions.push(Action::call(coin_addr, AuctionCoinMsg::Settle, "settle coin chain"));
            }
            if !ticket_contract(world, ticket_addr).settled() {
                actions.push(Action::call(
                    ticket_addr,
                    AuctionTicketMsg::Settle,
                    "settle ticket chain",
                ));
            }
            StepOutcome::Complete(actions)
        }),
    ]
}

fn bidder_steps(config: &AuctionConfig, setup: &AuctionSetup, bidder: PartyId) -> Vec<Step> {
    let coin_addr = setup.coin_addr;
    let ticket_addr = setup.ticket_addr;
    let bid = config.bids[(bidder.0 - 1) as usize];
    let bid_deadline = setup.params.bid_deadline;
    let challenge_deadline = setup.params.challenge_deadline;
    let secrets = setup.secrets.clone();
    vec![
        Step::new("bidder: place bid", move |world: &World| {
            let Some(amount) = bid else {
                return StepOutcome::Complete(vec![]);
            };
            if world.now().has_reached(bid_deadline) {
                // The auctioneer never funded the auction in time.
                return StepOutcome::Complete(vec![]);
            }
            // A prudent bidder commits coins only after observing both the
            // n·p endowment on this chain and the ticket escrow on the
            // other: Lemmas 7–8 protect bidders of *funded* auctions, and an
            // unfunded one (e.g. a crashed auctioneer whose endowment call
            // bounced) must attract no bids at all.
            let funded = coin_contract(world, coin_addr).premium_held()
                && ticket_contract(world, ticket_addr).tickets_held();
            if funded {
                StepOutcome::Complete(vec![Action::call(
                    coin_addr,
                    AuctionCoinMsg::PlaceBid { amount },
                    CallDesc::Amount { party: bidder, verb: "bids", amount },
                )])
            } else {
                StepOutcome::WaitUntil(bid_deadline)
            }
        })
        .with_deadline(bid_deadline),
        Step::new("bidder: challenge (cross-forward hashkeys)", move |world: &World| {
            if world.now().has_reached(challenge_deadline) {
                return StepOutcome::Complete(vec![]);
            }
            if !world.now().has_reached(bid_deadline) {
                return StepOutcome::WaitUntil(bid_deadline);
            }
            let on_coin = coin_contract(world, coin_addr).hashkeys_received();
            let on_ticket = ticket_contract(world, ticket_addr).hashkeys_received();
            let mut actions = Vec::new();
            for winner in &on_coin {
                if !on_ticket.contains(winner) {
                    actions.push(Action::call(
                        ticket_addr,
                        AuctionTicketMsg::SubmitHashkey {
                            winner: *winner,
                            secret: secrets[winner].clone(),
                        },
                        CallDesc::Parties {
                            party: bidder,
                            mid: " forwards ",
                            other: *winner,
                            suffix: "'s hashkey to the ticket chain",
                        },
                    ));
                }
            }
            for winner in &on_ticket {
                if !on_coin.contains(winner) {
                    actions.push(Action::call(
                        coin_addr,
                        AuctionCoinMsg::SubmitHashkey {
                            winner: *winner,
                            secret: secrets[winner].clone(),
                        },
                        CallDesc::Parties {
                            party: bidder,
                            mid: " forwards ",
                            other: *winner,
                            suffix: "'s hashkey to the coin chain",
                        },
                    ));
                }
            }
            if actions.is_empty() {
                // Forwarding opportunities only appear when other parties
                // act; the clock alone matters again at the challenge
                // deadline.
                StepOutcome::WaitUntil(challenge_deadline)
            } else {
                StepOutcome::Progress(actions)
            }
        })
        .with_deadline(challenge_deadline),
        Step::new("bidder: settle", move |world: &World| {
            if !world.now().has_reached(challenge_deadline) {
                return StepOutcome::WaitUntil(challenge_deadline);
            }
            let mut actions = Vec::new();
            if coin_contract(world, coin_addr).outcome().is_none() {
                actions.push(Action::call(coin_addr, AuctionCoinMsg::Settle, "settle coin chain"));
            }
            if !ticket_contract(world, ticket_addr).settled() {
                actions.push(Action::call(
                    ticket_addr,
                    AuctionTicketMsg::Settle,
                    "settle ticket chain",
                ));
            }
            StepOutcome::Complete(actions)
        }),
    ]
}

/// The final state of an auction run.
#[derive(Clone, Debug)]
pub struct AuctionCapture {
    payoffs: Payoffs,
    outcome: Option<AuctionOutcome>,
    ticket_winner: Option<PartyId>,
    failed_actions: usize,
    rounds: usize,
}

/// An auction configuration is the auction's [`Protocol`]. The
/// auctioneer's *declaration content* (honest, low-bidder, abandon) is part
/// of the configuration, so each behaviour records its own [`Prefix`].
///
/// [`Prefix`]: crate::script::Prefix
impl Protocol for AuctionConfig {
    type Setup = AuctionSetup;
    type Capture = AuctionCapture;
    type Report = AuctionReport;

    fn setup(&self, world: &mut World) -> AuctionSetup {
        build(world, self)
    }

    fn script(&self, setup: &AuctionSetup, profile: Profile<'_>) -> Vec<ScriptedParty> {
        let actors: Vec<ScriptedParty> = setup
            .parties
            .iter()
            .map(|&party| {
                let steps = if party == AUCTIONEER {
                    auctioneer_steps(self, setup)
                } else {
                    bidder_steps(self, setup, party)
                };
                ScriptedParty::new(party, steps, profile(party)).with_delta(self.delta_blocks)
            })
            .collect();
        debug_assert!(
            actors.iter().all(|a| a.total_steps() == SCRIPT_STEPS),
            "SCRIPT_STEPS must match every auction script so sweeps cover exactly the stop-points"
        );
        actors
    }

    fn max_rounds(&self) -> u64 {
        8 * self.delta_blocks + 4
    }

    fn capture(
        &self,
        world: &World,
        setup: &AuctionSetup,
        rounds: usize,
        failed_actions: usize,
    ) -> AuctionCapture {
        let after = BalanceSnapshot::capture(world, &setup.parties, &[setup.coin, setup.ticket]);
        AuctionCapture {
            payoffs: Payoffs::between(&setup.before, &after),
            outcome: coin_contract(world, setup.coin_addr).outcome(),
            ticket_winner: ticket_contract(world, setup.ticket_addr).winner(),
            failed_actions,
            rounds,
        }
    }

    fn judge(
        &self,
        setup: &AuctionSetup,
        capture: &AuctionCapture,
        profile: Profile<'_>,
    ) -> AuctionReport {
        let payoffs = &capture.payoffs;
        let mut bidder_coin_payoffs = BTreeMap::new();
        let mut bidder_ticket_payoffs = BTreeMap::new();
        let mut no_bid_stolen = true;
        let mut bidders_compensated = true;
        for (bidder, bid) in setup.parties[1..].iter().zip(&self.bids) {
            let coin_payoff = payoffs.of(*bidder, setup.coin).value();
            let ticket_payoff = payoffs.of(*bidder, setup.ticket).value();
            bidder_coin_payoffs.insert(*bidder, coin_payoff);
            bidder_ticket_payoffs.insert(*bidder, ticket_payoff);
            if profile(*bidder).is_compliant() {
                let got_tickets = ticket_payoff > 0;
                if !got_tickets && coin_payoff < 0 {
                    no_bid_stolen = false;
                }
                if bid.is_some()
                    && matches!(capture.outcome, Some(AuctionOutcome::Aborted))
                    && coin_payoff < self.premium.value() as i128
                {
                    bidders_compensated = false;
                }
            }
        }
        AuctionReport {
            outcome: capture.outcome,
            ticket_winner: capture.ticket_winner,
            bidder_coin_payoffs,
            bidder_ticket_payoffs,
            auctioneer_coin_payoff: payoffs.of(AUCTIONEER, setup.coin).value(),
            no_bid_stolen,
            bidders_compensated,
            payoffs: payoffs.clone(),
            failed_actions: capture.failed_actions,
            rounds: capture.rounds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::profile;

    #[test]
    fn honest_auction_awards_high_bidder() {
        let report = AuctionConfig::default().run(&|_| Strategy::compliant(), &mut World::new(1));
        assert!(
            matches!(report.outcome, Some(AuctionOutcome::Completed { winner, .. }) if winner == PartyId(1))
        );
        assert_eq!(report.ticket_winner, Some(PartyId(1)));
        assert_eq!(report.bidder_coin_payoffs[&PartyId(1)], -60);
        assert_eq!(report.bidder_ticket_payoffs[&PartyId(1)], 1);
        assert_eq!(report.bidder_coin_payoffs[&PartyId(2)], 0);
        assert_eq!(report.auctioneer_coin_payoff, 60);
        assert!(report.no_bid_stolen);
        assert_eq!(report.failed_actions, 0);
    }

    #[test]
    fn cheating_auctioneer_pays_premiums_to_bidders() {
        let config = AuctionConfig {
            auctioneer: AuctioneerBehaviour::DeclareLowBidder,
            ..AuctionConfig::default()
        };
        let report = config.run(&|_| Strategy::compliant(), &mut World::new(1));
        assert_eq!(report.outcome, Some(AuctionOutcome::Aborted));
        assert!(report.no_bid_stolen, "{report:?}");
        assert!(report.bidders_compensated);
        assert_eq!(report.bidder_coin_payoffs[&PartyId(1)], 2);
        assert_eq!(report.bidder_coin_payoffs[&PartyId(2)], 2);
        assert_eq!(report.auctioneer_coin_payoff, -4);
    }

    #[test]
    fn absent_auctioneer_still_compensates_bidders() {
        let config =
            AuctionConfig { auctioneer: AuctioneerBehaviour::Abandon, ..AuctionConfig::default() };
        let report = config.run(&|_| Strategy::compliant(), &mut World::new(1));
        assert_eq!(report.outcome, Some(AuctionOutcome::Aborted));
        assert!(report.no_bid_stolen);
        assert!(report.bidders_compensated);
    }

    #[test]
    fn low_bidder_cannot_grief_the_auction() {
        // Carol (the low bidder) refuses to do anything after bidding: the
        // auction still completes for Bob because Alice's hashkey appears on
        // both chains without Carol's help.
        let strategies = BTreeMap::from([(PartyId(2), Strategy::stop_after(1))]);
        let report = AuctionConfig::default().run(&profile(&strategies), &mut World::new(1));
        assert!(
            matches!(report.outcome, Some(AuctionOutcome::Completed { winner, .. }) if winner == PartyId(1))
        );
        assert_eq!(report.ticket_winner, Some(PartyId(1)));
        assert!(report.no_bid_stolen);
    }

    #[test]
    fn abstaining_bidder_is_harmless() {
        let config =
            AuctionConfig { bids: vec![Some(Amount::new(60)), None], ..AuctionConfig::default() };
        let report = config.run(&|_| Strategy::compliant(), &mut World::new(1));
        assert!(
            matches!(report.outcome, Some(AuctionOutcome::Completed { winner, .. }) if winner == PartyId(1))
        );
        assert!(report.no_bid_stolen);
    }

    #[test]
    fn auctioneer_walking_away_before_endowment_steals_nothing() {
        let strategies = BTreeMap::from([(AUCTIONEER, Strategy::stop_after(0))]);
        let report = AuctionConfig::default().run(&profile(&strategies), &mut World::new(1));
        assert!(report.no_bid_stolen);
        // Without the premium endowment the bids are still refunded.
        assert_eq!(report.bidder_coin_payoffs[&PartyId(1)], 0);
        assert_eq!(report.bidder_coin_payoffs[&PartyId(2)], 0);
    }
}
