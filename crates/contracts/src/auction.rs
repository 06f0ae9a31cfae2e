//! The hedged auction contracts (§9 of the paper).
//!
//! Alice auctions tickets (on the ticket chain) to a set of bidders who pay
//! in coins (on the coin chain). Alice generates one secret per potential
//! winner; publishing the winner's hashkey on both contracts settles the
//! auction. The design goals reproduced here are Lemmas 7–8: a compliant
//! bidder's bid can never be stolen, the losing bidder cannot grief the
//! auction, and the auctioneer posts a premium of `n·p` that compensates
//! the bidders if she walks away or cheats.

use std::any::Any;
use std::collections::{BTreeMap, BTreeSet};

use chainsim::{
    Amount, AssetId, CallEnv, Contract, ContractError, Disposition, PartyId, StateMachine,
    StateSpec, Time, TimeWindow, TransitionSpec,
};
use cryptosim::{Hashlock, Secret};
use serde::{Deserialize, Serialize};

/// Shared parameters of the auction (agreed by all parties up front).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct AuctionParams {
    /// The auctioneer (Alice).
    pub auctioneer: PartyId,
    /// The bidders (Bob, Carol, …).
    pub bidders: Vec<PartyId>,
    /// The asset bids are denominated in (coin-chain asset).
    pub coin_asset: AssetId,
    /// The asset being auctioned (ticket-chain asset).
    pub ticket_asset: AssetId,
    /// How many tickets are being auctioned.
    pub ticket_amount: Amount,
    /// The per-bidder premium `p`; the auctioneer deposits `n·p` in total.
    pub premium_per_bidder: Amount,
    /// One hashlock per bidder; publishing bidder `X`'s preimage declares
    /// `X` the winner.
    pub hashlocks: Vec<(PartyId, Hashlock)>,
    /// End of the bidding phase.
    pub bid_deadline: Time,
    /// End of the challenge phase; hashkeys are accepted strictly before
    /// this height and settlement is allowed from it.
    pub challenge_deadline: Time,
}

impl AuctionParams {
    /// The total premium the auctioneer must deposit (`n·p`).
    pub fn total_premium(&self) -> Amount {
        self.premium_per_bidder.scaled(self.bidders.len() as u128)
    }

    fn hashlock_for(&self, bidder: PartyId) -> Option<Hashlock> {
        self.hashlocks.iter().find(|(b, _)| *b == bidder).map(|(_, h)| *h)
    }

    fn is_bidder(&self, party: PartyId) -> bool {
        self.bidders.contains(&party)
    }

    /// Both contracts' `SubmitHashkey` handler: records `winner` in
    /// `received` once `secret` opens its hashlock inside the challenge
    /// window. A repeat is accepted and changes nothing.
    fn submit_hashkey(
        &self,
        env: &mut CallEnv<'_>,
        received: &mut BTreeSet<PartyId>,
        winner: PartyId,
        secret: &Secret,
    ) -> Result<(), ContractError> {
        let hashlock = self
            .hashlock_for(winner)
            .ok_or_else(|| ContractError::invalid_state(format!("{winner} is not a bidder")))?;
        if !hashlock.matches(secret) {
            return Err(ContractError::HashlockMismatch);
        }
        env.ensure_reached(self.bid_deadline)?;
        env.ensure_before(self.challenge_deadline)?;
        received.insert(winner);
        env.charge_note();
        Ok(())
    }
}

/// How the coin-chain contract settled.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum AuctionOutcome {
    /// Exactly the true winner's hashkey arrived: the winner's bid went to
    /// the auctioneer and every other bid was refunded.
    Completed {
        /// The winning bidder.
        winner: PartyId,
        /// The winning bid amount.
        winning_bid: Amount,
    },
    /// The auctioneer deviated (wrong, extra or missing hashkey): all bids
    /// were refunded and each bidder was compensated with `p`.
    Aborted,
}

/// Messages accepted by the [`AuctionCoinContract`].
#[derive(Clone, Debug)]
pub enum AuctionCoinMsg {
    /// The auctioneer deposits the `n·p` premium endowment.
    DepositPremium,
    /// A bidder places (and funds) its bid.
    PlaceBid {
        /// The bid amount.
        amount: Amount,
    },
    /// Anyone submits a hashkey identifying `winner` (the challenge phase
    /// forwards hashkeys seen on the other chain).
    SubmitHashkey {
        /// The bidder this secret declares the winner.
        winner: PartyId,
        /// The preimage of that bidder's hashlock.
        secret: Secret,
    },
    /// Anyone settles the auction after the challenge phase.
    Settle,
}

/// The coin-chain half of the auction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AuctionCoinContract {
    params: AuctionParams,
    premium_held: bool,
    bids: BTreeMap<PartyId, Amount>,
    hashkeys: BTreeSet<PartyId>,
    outcome: Option<AuctionOutcome>,
}

impl AuctionCoinContract {
    /// Creates the coin-chain contract.
    pub fn new(params: AuctionParams) -> Self {
        AuctionCoinContract {
            params,
            premium_held: false,
            bids: BTreeMap::new(),
            hashkeys: BTreeSet::new(),
            outcome: None,
        }
    }

    /// The auction parameters.
    pub fn params(&self) -> &AuctionParams {
        &self.params
    }

    /// The recorded bids.
    pub fn bids(&self) -> &BTreeMap<PartyId, Amount> {
        &self.bids
    }

    /// The bidders whose hashkeys have been submitted here.
    pub fn hashkeys_received(&self) -> Vec<PartyId> {
        self.hashkeys.iter().copied().collect()
    }

    /// The settlement outcome, if the auction has been settled.
    pub fn outcome(&self) -> Option<AuctionOutcome> {
        self.outcome
    }

    /// The highest bidder and bid, if any bids were placed (ties broken by
    /// lower party id, deterministically).
    pub fn high_bidder(&self) -> Option<(PartyId, Amount)> {
        self.bids
            .iter()
            .max_by(|(pa, aa), (pb, ab)| aa.cmp(ab).then(pb.cmp(pa)))
            .map(|(p, a)| (*p, *a))
    }

    /// Whether the auctioneer's premium endowment is currently held.
    pub fn premium_held(&self) -> bool {
        self.premium_held
    }

    fn deposit_premium(&mut self, env: &mut CallEnv<'_>) -> Result<(), ContractError> {
        if env.caller() != self.params.auctioneer {
            return Err(ContractError::Unauthorised { caller: env.caller() });
        }
        if self.premium_held {
            return Err(ContractError::invalid_state("premium already deposited"));
        }
        env.ensure_before(self.params.bid_deadline)?;
        env.debit_caller(self.params.coin_asset, self.params.total_premium())?;
        self.premium_held = true;
        Ok(())
    }

    fn place_bid(&mut self, env: &mut CallEnv<'_>, amount: Amount) -> Result<(), ContractError> {
        let bidder = env.caller();
        if !self.params.is_bidder(bidder) {
            return Err(ContractError::Unauthorised { caller: bidder });
        }
        if self.bids.contains_key(&bidder) {
            return Err(ContractError::invalid_state("bid already placed"));
        }
        if amount.is_zero() {
            return Err(ContractError::invalid_state("bid must be positive"));
        }
        // Lemma 7/8 presuppose the auctioneer's n·p endowment: without it a
        // declared winner's bid would be paid out with no compensation pool
        // behind it. An earlier revision accepted naked bids, and a
        // crash-then-recover auctioneer — endowment call bounced after the
        // deadline, declaration still in time — collected a winning bid with
        // no tickets escrowed on the other chain. The contract itself now
        // refuses bids until the endowment is in place.
        if !self.premium_held {
            return Err(ContractError::invalid_state(
                "bids are not accepted before the auctioneer's premium endowment",
            ));
        }
        env.ensure_before(self.params.bid_deadline)?;
        env.debit_caller(self.params.coin_asset, amount)?;
        self.bids.insert(bidder, amount);
        Ok(())
    }

    fn settle(&mut self, env: &mut CallEnv<'_>) -> Result<(), ContractError> {
        if self.outcome.is_some() {
            return Err(ContractError::invalid_state("auction already settled"));
        }
        env.ensure_reached(self.params.challenge_deadline)?;
        let received = self.hashkeys_received();
        let high = self.high_bidder();
        let honest_completion = matches!(
            (high, received.as_slice()),
            (Some((winner, _)), [only]) if *only == winner
        );
        if honest_completion {
            let (winner, winning_bid) = high.expect("checked above");
            // Winner's bid to the auctioneer, other bids refunded, premium back.
            env.pay_out(self.params.auctioneer, self.params.coin_asset, winning_bid)?;
            for (bidder, amount) in self.bids.iter() {
                if *bidder != winner {
                    env.pay_out(*bidder, self.params.coin_asset, *amount)?;
                }
            }
            if self.premium_held {
                env.pay_out(
                    self.params.auctioneer,
                    self.params.coin_asset,
                    self.params.total_premium(),
                )?;
            }
            self.outcome = Some(AuctionOutcome::Completed { winner, winning_bid });
            env.charge_note();
        } else {
            // Refund all bids; compensate each bidder with p from the premium.
            for (bidder, amount) in self.bids.iter() {
                env.pay_out(*bidder, self.params.coin_asset, *amount)?;
            }
            if self.premium_held {
                for bidder in &self.params.bidders {
                    env.pay_out(*bidder, self.params.coin_asset, self.params.premium_per_bidder)?;
                }
            }
            self.outcome = Some(AuctionOutcome::Aborted);
            env.charge_note();
        }
        self.premium_held = false;
        Ok(())
    }
}

impl Contract for AuctionCoinContract {
    fn type_name(&self) -> &'static str {
        "AuctionCoinContract"
    }

    fn clone_box(&self) -> Box<dyn Contract> {
        Box::new(self.clone())
    }

    fn handle(&mut self, env: &mut CallEnv<'_>, msg: &dyn Any) -> Result<(), ContractError> {
        let msg = msg.downcast_ref::<AuctionCoinMsg>().ok_or(ContractError::UnsupportedMessage)?;
        match msg {
            AuctionCoinMsg::DepositPremium => self.deposit_premium(env),
            AuctionCoinMsg::PlaceBid { amount } => self.place_bid(env, *amount),
            AuctionCoinMsg::SubmitHashkey { winner, secret } => {
                self.params.submit_hashkey(env, &mut self.hashkeys, *winner, secret)
            }
            AuctionCoinMsg::Settle => self.settle(env),
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    // Custody spec. Bids are modelled as one aggregate fund: the contract
    // refuses naked bids (`place_bid` requires the premium endowment), so
    // bids only ever exist on top of a held premium pool, and both settle
    // branches dispose of every held fund. Additional bids are the
    // `PlaceBidMore` self-loop — custody-neutral for the may-hold analysis
    // but kept for fidelity with the message surface.
    fn state_spec(&self) -> Option<StateSpec> {
        Some(
            StateSpec::new(self.type_name()).machine(
                StateMachine::new("coin", "Init")
                    .fund("premium_pool")
                    .fund("bids")
                    .transition(
                        TransitionSpec::new(
                            "DepositPremium",
                            "Init",
                            "Endowed",
                            TimeWindow::before(self.params.bid_deadline),
                        )
                        .deposits("premium_pool"),
                    )
                    .transition(
                        TransitionSpec::new(
                            "PlaceBid",
                            "Endowed",
                            "EndowedBids",
                            TimeWindow::before(self.params.bid_deadline),
                        )
                        .deposits("bids"),
                    )
                    .transition(
                        TransitionSpec::new(
                            "PlaceBidMore",
                            "EndowedBids",
                            "EndowedBids",
                            TimeWindow::before(self.params.bid_deadline),
                        )
                        .deposits("bids"),
                    )
                    .transition(
                        TransitionSpec::new(
                            "SettleCompleted",
                            "EndowedBids",
                            "Completed",
                            TimeWindow::from(self.params.challenge_deadline),
                        )
                        .releases("bids", Disposition::Redeem)
                        .releases("premium_pool", Disposition::Refund),
                    )
                    .transition(
                        TransitionSpec::new(
                            "SettleAborted",
                            "EndowedBids",
                            "Aborted",
                            TimeWindow::from(self.params.challenge_deadline),
                        )
                        .releases("bids", Disposition::Refund)
                        .releases("premium_pool", Disposition::Forfeit),
                    )
                    .transition(
                        TransitionSpec::new(
                            "SettleNoBids",
                            "Endowed",
                            "Aborted",
                            TimeWindow::from(self.params.challenge_deadline),
                        )
                        .releases("premium_pool", Disposition::Forfeit),
                    ),
            ),
        )
    }
}

/// Messages accepted by the [`AuctionTicketContract`].
#[derive(Clone, Debug)]
pub enum AuctionTicketMsg {
    /// The auctioneer escrows the tickets.
    EscrowTickets,
    /// Anyone submits a hashkey identifying `winner`.
    SubmitHashkey {
        /// The bidder this secret declares the winner.
        winner: PartyId,
        /// The preimage of that bidder's hashlock.
        secret: Secret,
    },
    /// Anyone settles the contract after the challenge phase.
    Settle,
}

/// The ticket-chain half of the auction.
///
/// If exactly one hashkey is received before the challenge deadline, the
/// tickets go to that bidder; with zero or two (or more) hashkeys the
/// tickets are refunded to the auctioneer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AuctionTicketContract {
    params: AuctionParams,
    tickets_held: bool,
    hashkeys: BTreeSet<PartyId>,
    winner: Option<PartyId>,
    settled: bool,
}

impl AuctionTicketContract {
    /// Creates the ticket-chain contract.
    pub fn new(params: AuctionParams) -> Self {
        AuctionTicketContract {
            params,
            tickets_held: false,
            hashkeys: BTreeSet::new(),
            winner: None,
            settled: false,
        }
    }

    /// The auction parameters.
    pub fn params(&self) -> &AuctionParams {
        &self.params
    }

    /// Whether the tickets are currently escrowed.
    pub fn tickets_held(&self) -> bool {
        self.tickets_held
    }

    /// The bidders whose hashkeys have been submitted here.
    pub fn hashkeys_received(&self) -> Vec<PartyId> {
        self.hashkeys.iter().copied().collect()
    }

    /// The bidder the tickets were awarded to, if any.
    pub fn winner(&self) -> Option<PartyId> {
        self.winner
    }

    /// Whether the contract has settled.
    pub fn settled(&self) -> bool {
        self.settled
    }

    fn escrow_tickets(&mut self, env: &mut CallEnv<'_>) -> Result<(), ContractError> {
        if env.caller() != self.params.auctioneer {
            return Err(ContractError::Unauthorised { caller: env.caller() });
        }
        if self.tickets_held {
            return Err(ContractError::invalid_state("tickets already escrowed"));
        }
        env.ensure_before(self.params.bid_deadline)?;
        env.debit_caller(self.params.ticket_asset, self.params.ticket_amount)?;
        self.tickets_held = true;
        Ok(())
    }

    fn settle(&mut self, env: &mut CallEnv<'_>) -> Result<(), ContractError> {
        if self.settled {
            return Err(ContractError::invalid_state("already settled"));
        }
        env.ensure_reached(self.params.challenge_deadline)?;
        if !self.tickets_held {
            self.settled = true;
            env.charge_note();
            return Ok(());
        }
        let received = self.hashkeys_received();
        if received.len() == 1 {
            let winner = received[0];
            env.pay_out(winner, self.params.ticket_asset, self.params.ticket_amount)?;
            self.winner = Some(winner);
            env.charge_note();
        } else {
            env.pay_out(
                self.params.auctioneer,
                self.params.ticket_asset,
                self.params.ticket_amount,
            )?;
            env.charge_note();
        }
        self.tickets_held = false;
        self.settled = true;
        Ok(())
    }
}

impl Contract for AuctionTicketContract {
    fn type_name(&self) -> &'static str {
        "AuctionTicketContract"
    }

    fn clone_box(&self) -> Box<dyn Contract> {
        Box::new(self.clone())
    }

    fn handle(&mut self, env: &mut CallEnv<'_>, msg: &dyn Any) -> Result<(), ContractError> {
        let msg =
            msg.downcast_ref::<AuctionTicketMsg>().ok_or(ContractError::UnsupportedMessage)?;
        match msg {
            AuctionTicketMsg::EscrowTickets => self.escrow_tickets(env),
            AuctionTicketMsg::SubmitHashkey { winner, secret } => {
                self.params.submit_hashkey(env, &mut self.hashkeys, *winner, secret)
            }
            AuctionTicketMsg::Settle => self.settle(env),
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    // Custody spec. One machine, one fund: the ticket escrow either goes to
    // the unique named winner (exactly one hashkey submitted in the
    // challenge window) or back to the auctioneer — both from the
    // challenge deadline on, mirroring `settle`.
    fn state_spec(&self) -> Option<StateSpec> {
        Some(
            StateSpec::new(self.type_name()).machine(
                StateMachine::new("tickets", "Init")
                    .fund("tickets")
                    .transition(
                        TransitionSpec::new(
                            "EscrowTickets",
                            "Init",
                            "TicketsHeld",
                            TimeWindow::before(self.params.bid_deadline),
                        )
                        .deposits("tickets"),
                    )
                    .transition(
                        TransitionSpec::new(
                            "SettleWinner",
                            "TicketsHeld",
                            "Won",
                            TimeWindow::from(self.params.challenge_deadline),
                        )
                        .releases("tickets", Disposition::Redeem),
                    )
                    .transition(
                        TransitionSpec::new(
                            "SettleReturn",
                            "TicketsHeld",
                            "Returned",
                            TimeWindow::from(self.params.challenge_deadline),
                        )
                        .releases("tickets", Disposition::Refund),
                    ),
            ),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chainsim::{AccountRef, ContractAddr, ContractMessage, GasSchedule, World};

    const ALICE: PartyId = PartyId(0);
    const BOB: PartyId = PartyId(1);
    const CAROL: PartyId = PartyId(2);

    struct Fixture {
        world: World,
        coin_addr: ContractAddr,
        ticket_addr: ContractAddr,
        coin: AssetId,
        ticket: AssetId,
        secret_bob: Secret,
        secret_carol: Secret,
    }

    fn setup() -> Fixture {
        let mut world = World::new(1);
        let coin_chain = world.add_chain("coin");
        let ticket_chain = world.add_chain("ticket");
        let coin = world.register_asset("coin");
        let ticket = world.register_asset("ticket");
        world.chain_mut(coin_chain).mint(ALICE, coin, Amount::new(10));
        world.chain_mut(coin_chain).mint(BOB, coin, Amount::new(100));
        world.chain_mut(coin_chain).mint(CAROL, coin, Amount::new(100));
        world.chain_mut(ticket_chain).mint(ALICE, ticket, Amount::new(5));

        let secret_bob = Secret::from_seed(101);
        let secret_carol = Secret::from_seed(102);
        let params = AuctionParams {
            auctioneer: ALICE,
            bidders: vec![BOB, CAROL],
            coin_asset: coin,
            ticket_asset: ticket,
            ticket_amount: Amount::new(5),
            premium_per_bidder: Amount::new(2),
            hashlocks: vec![(BOB, secret_bob.hashlock()), (CAROL, secret_carol.hashlock())],
            bid_deadline: Time(2),
            challenge_deadline: Time(7),
        };
        let coin_addr =
            world.publish(coin_chain, Box::new(AuctionCoinContract::new(params.clone())));
        let ticket_addr = world.publish(ticket_chain, Box::new(AuctionTicketContract::new(params)));
        Fixture { world, coin_addr, ticket_addr, coin, ticket, secret_bob, secret_carol }
    }

    fn coin_contract(f: &Fixture) -> &AuctionCoinContract {
        f.world
            .chain(f.coin_addr.chain)
            .contract_as::<AuctionCoinContract>(f.coin_addr.contract)
            .unwrap()
    }

    fn ticket_contract(f: &Fixture) -> &AuctionTicketContract {
        f.world
            .chain(f.ticket_addr.chain)
            .contract_as::<AuctionTicketContract>(f.ticket_addr.contract)
            .unwrap()
    }

    fn coin_balance(f: &Fixture, party: PartyId) -> Amount {
        f.world.chain(f.coin_addr.chain).balance(AccountRef::Party(party), f.coin)
    }

    fn ticket_balance(f: &Fixture, party: PartyId) -> Amount {
        f.world.chain(f.ticket_addr.chain).balance(AccountRef::Party(party), f.ticket)
    }

    fn run_honest_setup(f: &mut Fixture) {
        f.world.call(ALICE, f.coin_addr, &AuctionCoinMsg::DepositPremium).unwrap();
        f.world.call(ALICE, f.ticket_addr, &AuctionTicketMsg::EscrowTickets).unwrap();
        f.world
            .call(BOB, f.coin_addr, &AuctionCoinMsg::PlaceBid { amount: Amount::new(60) })
            .unwrap();
        f.world
            .call(CAROL, f.coin_addr, &AuctionCoinMsg::PlaceBid { amount: Amount::new(40) })
            .unwrap();
        f.world.advance_blocks(2);
    }

    #[test]
    fn honest_auction_awards_high_bidder() {
        let mut f = setup();
        run_honest_setup(&mut f);
        // Declaration: Alice publishes Bob's hashkey (the true winner) on both chains.
        let secret = f.secret_bob.clone();
        f.world
            .call(
                ALICE,
                f.coin_addr,
                &AuctionCoinMsg::SubmitHashkey { winner: BOB, secret: secret.clone() },
            )
            .unwrap();
        f.world
            .call(ALICE, f.ticket_addr, &AuctionTicketMsg::SubmitHashkey { winner: BOB, secret })
            .unwrap();
        f.world.advance_blocks(5);
        f.world.call(BOB, f.coin_addr, &AuctionCoinMsg::Settle).unwrap();
        f.world.call(BOB, f.ticket_addr, &AuctionTicketMsg::Settle).unwrap();

        assert_eq!(
            coin_contract(&f).outcome(),
            Some(AuctionOutcome::Completed { winner: BOB, winning_bid: Amount::new(60) })
        );
        assert_eq!(ticket_contract(&f).winner(), Some(BOB));
        // Alice receives the winning bid and her premium back.
        assert_eq!(coin_balance(&f, ALICE), Amount::new(10 + 60));
        // Carol's bid is refunded; Bob paid 60 and got the tickets.
        assert_eq!(coin_balance(&f, CAROL), Amount::new(100));
        assert_eq!(coin_balance(&f, BOB), Amount::new(40));
        assert_eq!(ticket_balance(&f, BOB), Amount::new(5));
        assert_eq!(ticket_balance(&f, ALICE), Amount::ZERO);
    }

    #[test]
    fn repeated_hashkey_is_idempotent_on_both_contracts() {
        let mut f = setup();
        run_honest_setup(&mut f);
        let secret = f.secret_bob.clone();
        let coin_msg = AuctionCoinMsg::SubmitHashkey { winner: BOB, secret: secret.clone() };
        let ticket_msg = AuctionTicketMsg::SubmitHashkey { winner: BOB, secret };
        // A repeat is accepted and charges the dispatch plus one note, as
        // the first submission does.
        let per_submit = GasSchedule::DEFAULT.call_base + GasSchedule::DEFAULT.note;
        for (addr, msg) in [
            (f.coin_addr, &coin_msg as &dyn ContractMessage),
            (f.coin_addr, &coin_msg),
            (f.ticket_addr, &ticket_msg),
            (f.ticket_addr, &ticket_msg),
        ] {
            let before = f.world.chain(addr.chain).gas_total();
            f.world.call(ALICE, addr, msg).unwrap();
            assert_eq!(f.world.chain(addr.chain).gas_total() - before, per_submit);
        }
        assert_eq!(coin_contract(&f).hashkeys_received(), vec![BOB]);
        assert_eq!(ticket_contract(&f).hashkeys_received(), vec![BOB]);
        f.world.advance_blocks(5);
        f.world.call(BOB, f.coin_addr, &AuctionCoinMsg::Settle).unwrap();
        f.world.call(BOB, f.ticket_addr, &AuctionTicketMsg::Settle).unwrap();
        assert_eq!(
            coin_contract(&f).outcome(),
            Some(AuctionOutcome::Completed { winner: BOB, winning_bid: Amount::new(60) })
        );
        assert_eq!(ticket_contract(&f).winner(), Some(BOB));
        assert_eq!(ticket_balance(&f, BOB), Amount::new(5));
    }

    #[test]
    fn cheating_auctioneer_compensates_bidders() {
        // Alice declares the *low* bidder (Carol) the winner: the coin chain
        // detects the mismatch, refunds all bids and pays each bidder p.
        let mut f = setup();
        run_honest_setup(&mut f);
        let secret = f.secret_carol.clone();
        f.world
            .call(
                ALICE,
                f.coin_addr,
                &AuctionCoinMsg::SubmitHashkey { winner: CAROL, secret: secret.clone() },
            )
            .unwrap();
        f.world
            .call(ALICE, f.ticket_addr, &AuctionTicketMsg::SubmitHashkey { winner: CAROL, secret })
            .unwrap();
        f.world.advance_blocks(5);
        f.world.call(BOB, f.coin_addr, &AuctionCoinMsg::Settle).unwrap();
        f.world.call(BOB, f.ticket_addr, &AuctionTicketMsg::Settle).unwrap();

        assert_eq!(coin_contract(&f).outcome(), Some(AuctionOutcome::Aborted));
        // All bids refunded plus p = 2 compensation each; Alice forfeits 2p.
        assert_eq!(coin_balance(&f, BOB), Amount::new(102));
        assert_eq!(coin_balance(&f, CAROL), Amount::new(102));
        assert_eq!(coin_balance(&f, ALICE), Amount::new(6));
        // The tickets still go to the single named bidder on the ticket
        // chain (Alice may give her tickets to whomever she wants; the point
        // is that no compliant bidder's coins were stolen).
        assert_eq!(ticket_contract(&f).winner(), Some(CAROL));
    }

    #[test]
    fn absent_auctioneer_compensates_bidders_and_refunds_tickets() {
        // Alice never declares a winner: bids refunded + p each, tickets back
        // to Alice (zero hashkeys on the ticket chain).
        let mut f = setup();
        run_honest_setup(&mut f);
        f.world.advance_blocks(5);
        f.world.call(CAROL, f.coin_addr, &AuctionCoinMsg::Settle).unwrap();
        f.world.call(CAROL, f.ticket_addr, &AuctionTicketMsg::Settle).unwrap();
        assert_eq!(coin_contract(&f).outcome(), Some(AuctionOutcome::Aborted));
        assert_eq!(coin_balance(&f, BOB), Amount::new(102));
        assert_eq!(coin_balance(&f, CAROL), Amount::new(102));
        assert_eq!(coin_balance(&f, ALICE), Amount::new(6));
        assert_eq!(ticket_balance(&f, ALICE), Amount::new(5));
        assert_eq!(ticket_contract(&f).winner(), None);
    }

    #[test]
    fn two_hashkeys_on_ticket_chain_refund_tickets() {
        // If both hashkeys somehow appear on the ticket chain, the tickets
        // are refunded to Alice (and the coin chain aborts).
        let mut f = setup();
        run_honest_setup(&mut f);
        for (winner, secret) in [(BOB, f.secret_bob.clone()), (CAROL, f.secret_carol.clone())] {
            f.world
                .call(
                    ALICE,
                    f.ticket_addr,
                    &AuctionTicketMsg::SubmitHashkey { winner, secret: secret.clone() },
                )
                .unwrap();
            f.world
                .call(ALICE, f.coin_addr, &AuctionCoinMsg::SubmitHashkey { winner, secret })
                .unwrap();
        }
        f.world.advance_blocks(5);
        f.world.call(BOB, f.coin_addr, &AuctionCoinMsg::Settle).unwrap();
        f.world.call(BOB, f.ticket_addr, &AuctionTicketMsg::Settle).unwrap();
        assert_eq!(coin_contract(&f).outcome(), Some(AuctionOutcome::Aborted));
        assert_eq!(ticket_balance(&f, ALICE), Amount::new(5));
        assert_eq!(coin_balance(&f, BOB), Amount::new(102));
    }

    #[test]
    fn bids_respect_deadline_role_and_uniqueness() {
        let mut f = setup();
        // No bids before the endowment is in place.
        assert!(f
            .world
            .call(BOB, f.coin_addr, &AuctionCoinMsg::PlaceBid { amount: Amount::new(10) })
            .is_err());
        f.world.call(ALICE, f.coin_addr, &AuctionCoinMsg::DepositPremium).unwrap();
        // Alice cannot bid.
        assert!(f
            .world
            .call(ALICE, f.coin_addr, &AuctionCoinMsg::PlaceBid { amount: Amount::new(1) })
            .is_err());
        // Zero bids rejected.
        assert!(f
            .world
            .call(BOB, f.coin_addr, &AuctionCoinMsg::PlaceBid { amount: Amount::ZERO })
            .is_err());
        f.world
            .call(BOB, f.coin_addr, &AuctionCoinMsg::PlaceBid { amount: Amount::new(10) })
            .unwrap();
        // Duplicate bid rejected.
        assert!(f
            .world
            .call(BOB, f.coin_addr, &AuctionCoinMsg::PlaceBid { amount: Amount::new(20) })
            .is_err());
        // Late bid rejected.
        f.world.advance_blocks(2);
        assert!(f
            .world
            .call(CAROL, f.coin_addr, &AuctionCoinMsg::PlaceBid { amount: Amount::new(20) })
            .is_err());
    }

    #[test]
    fn hashkeys_rejected_outside_window_or_with_bad_secret() {
        let mut f = setup();
        run_honest_setup(&mut f);
        // Wrong secret for the named winner.
        assert!(f
            .world
            .call(
                ALICE,
                f.coin_addr,
                &AuctionCoinMsg::SubmitHashkey { winner: BOB, secret: f.secret_carol.clone() },
            )
            .is_err());
        // Unknown winner.
        assert!(f
            .world
            .call(
                ALICE,
                f.coin_addr,
                &AuctionCoinMsg::SubmitHashkey { winner: PartyId(9), secret: f.secret_bob.clone() },
            )
            .is_err());
        // After the challenge deadline the hashkey is rejected.
        f.world.advance_blocks(5);
        assert!(f
            .world
            .call(
                ALICE,
                f.coin_addr,
                &AuctionCoinMsg::SubmitHashkey { winner: BOB, secret: f.secret_bob.clone() },
            )
            .is_err());
    }

    #[test]
    fn hashkeys_rejected_before_bidding_closes() {
        let mut f = setup();
        assert!(f
            .world
            .call(
                ALICE,
                f.coin_addr,
                &AuctionCoinMsg::SubmitHashkey { winner: BOB, secret: f.secret_bob.clone() },
            )
            .is_err());
    }

    #[test]
    fn settle_rejected_before_challenge_deadline_and_only_once() {
        let mut f = setup();
        run_honest_setup(&mut f);
        assert!(f.world.call(BOB, f.coin_addr, &AuctionCoinMsg::Settle).is_err());
        f.world.advance_blocks(5);
        f.world.call(BOB, f.coin_addr, &AuctionCoinMsg::Settle).unwrap();
        assert!(f.world.call(BOB, f.coin_addr, &AuctionCoinMsg::Settle).is_err());
        f.world.call(BOB, f.ticket_addr, &AuctionTicketMsg::Settle).unwrap();
        assert!(f.world.call(BOB, f.ticket_addr, &AuctionTicketMsg::Settle).is_err());
    }

    #[test]
    fn premium_and_tickets_require_auctioneer() {
        let mut f = setup();
        assert!(f.world.call(BOB, f.coin_addr, &AuctionCoinMsg::DepositPremium).is_err());
        assert!(f.world.call(BOB, f.ticket_addr, &AuctionTicketMsg::EscrowTickets).is_err());
        f.world.call(ALICE, f.coin_addr, &AuctionCoinMsg::DepositPremium).unwrap();
        assert!(f.world.call(ALICE, f.coin_addr, &AuctionCoinMsg::DepositPremium).is_err());
        assert_eq!(coin_contract(&f).params().total_premium(), Amount::new(4));
        assert!(coin_contract(&f).premium_held());
    }

    #[test]
    fn high_bidder_tie_breaks_deterministically() {
        let mut f = setup();
        f.world.call(ALICE, f.coin_addr, &AuctionCoinMsg::DepositPremium).unwrap();
        f.world
            .call(BOB, f.coin_addr, &AuctionCoinMsg::PlaceBid { amount: Amount::new(50) })
            .unwrap();
        f.world
            .call(CAROL, f.coin_addr, &AuctionCoinMsg::PlaceBid { amount: Amount::new(50) })
            .unwrap();
        assert_eq!(coin_contract(&f).high_bidder(), Some((BOB, Amount::new(50))));
    }

    #[test]
    fn settle_with_no_bids_refunds_premium_path() {
        let mut f = setup();
        f.world.call(ALICE, f.coin_addr, &AuctionCoinMsg::DepositPremium).unwrap();
        f.world.advance_blocks(7);
        f.world.call(ALICE, f.coin_addr, &AuctionCoinMsg::Settle).unwrap();
        // No bids and no hashkeys: the abort path pays each bidder p.
        assert_eq!(coin_contract(&f).outcome(), Some(AuctionOutcome::Aborted));
        assert_eq!(coin_balance(&f, BOB), Amount::new(102));
        assert_eq!(coin_balance(&f, CAROL), Amount::new(102));
    }

    #[test]
    fn ticket_settle_without_escrow_is_a_noop() {
        let mut f = setup();
        f.world.advance_blocks(7);
        f.world.call(BOB, f.ticket_addr, &AuctionTicketMsg::Settle).unwrap();
        assert!(ticket_contract(&f).settled());
        assert_eq!(ticket_balance(&f, ALICE), Amount::new(5));
    }
}
