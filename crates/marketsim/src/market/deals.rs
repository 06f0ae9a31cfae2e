//! Deal instances and their compiled action plans.
//!
//! A deal is generated once, up front, from a seed-pinned SplitMix64 stream:
//! its kind, participants, shards, amounts and (for hedged swaps) scripted
//! deviation are all functions of `(seed, deal id)` alone. Generation
//! compiles each deal into a list of [`PlannedAction`]s keyed by *emission
//! offset*: the round (relative to the deal's start) at which the home shard
//! either executes the action locally or queues it for the target shard.
//! Remote actions are emitted one round before their execution offset, so
//! the batched round-boundary delivery lands them exactly on schedule.
//!
//! The timelines below are verified against the contract deadline semantics
//! (`ensure_before` is strict, `has_reached` is `>=`); every scripted call
//! of a correct run succeeds, and the driver treats any failed call as a
//! violation.

use chainsim::{Amount, PartyId, Time};
use contracts::{
    AuctionCoinContract, AuctionCoinMsg, AuctionParams, AuctionTicketContract, AuctionTicketMsg,
    HedgedEscrow, HedgedEscrowMsg, HtlcEscrow, HtlcMsg,
};
use cryptosim::Secret;
use protocols::market::{AccountPool, HedgedSwapSpec};
use protocols::two_party::TwoPartyConfig;

use super::shard::{MarketCall, MarketMsg, NATIVE_ASSET, TOKEN_ASSET};
use super::{MarketConfig, SplitMix64};
use crate::PricePath;

/// The largest settle offset any deal kind reaches (the hedged walk-away
/// paths settle their home leg 7 rounds after the deal starts).
pub const MAX_SETTLE_OFFSET: u32 = 7;

/// The kind of a generated deal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DealKind {
    /// A §5.2 two-party hedged swap across two shards.
    HedgedSwap,
    /// A three-party HTLC cycle (A→B→C→A) across up to three shards.
    Cycle3,
    /// A §9 hedged auction: coin contract home, ticket contract remote.
    Auction,
    /// A §8-style brokered sale: commission, payment and item legs.
    Brokered,
}

impl DealKind {
    /// A stable label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            DealKind::HedgedSwap => "hedged_swap",
            DealKind::Cycle3 => "cycle3",
            DealKind::Auction => "auction",
            DealKind::Brokered => "brokered",
        }
    }
}

/// The scripted deviation of a hedged swap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HedgedDeviation {
    /// Both parties comply; principals are swapped.
    Clean,
    /// The follower deposits its premium but never escrows: the paper's
    /// first sore-loser case. The compliant leader nets `+p_b`.
    FollowerWalks,
    /// The leader escrows are in place but the leader never redeems: the
    /// compliant follower nets `+p_a`.
    LeaderWalks,
}

/// Where a deal leg lives: the shard it was published on plus its leg index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LegRef {
    /// The shard holding the leg's contract.
    pub shard: u32,
    /// The leg index within the deal.
    pub leg: u8,
}

/// One scheduled action: at `offset` rounds after the deal starts, the home
/// shard executes `msg` locally (if `target` is home) or queues it for
/// `target`'s next round.
#[derive(Debug)]
pub struct PlannedAction {
    /// Emission offset in rounds from the deal's start round.
    pub offset: u32,
    /// The shard the message must execute on.
    pub target: u32,
    /// The message.
    pub msg: MarketMsg,
}

/// The auction's one dynamic step: at `offset` the home shard reads the
/// coin contract's high bidder and submits that bidder's hashkey on both
/// chains.
#[derive(Debug)]
pub struct AuctionDeclare {
    /// Emission offset in rounds from the deal's start round.
    pub offset: u32,
    /// The coin contract's leg index (on the home shard).
    pub coin_leg: u8,
    /// The ticket contract's leg index.
    pub ticket_leg: u8,
    /// The shard holding the ticket contract.
    pub ticket_shard: u32,
    /// The declaring party (the auctioneer).
    pub caller: PartyId,
    /// The per-bidder secrets the auctioneer generated.
    pub secrets: Vec<(PartyId, Secret)>,
}

/// The end-state a deal must reach for the run to count it settled.
#[derive(Debug)]
pub enum Expected {
    /// Hedged swap: leg 0 is the leader (home) leg, leg 1 the follower leg;
    /// the deviation decides which terminal states are correct.
    Hedged {
        /// The scripted deviation.
        deviation: HedgedDeviation,
        /// Leader leg, then follower leg.
        legs: [LegRef; 2],
    },
    /// Every HTLC leg of a cycle or brokered sale must end `Redeemed`.
    Ring {
        /// All legs of the ring.
        legs: Vec<LegRef>,
    },
    /// The auction must complete with exactly this winner and bid.
    Auction {
        /// The coin contract.
        coin: LegRef,
        /// The ticket contract.
        ticket: LegRef,
        /// The expected winner (highest bid, ties to the lower party id).
        winner: PartyId,
        /// The expected winning bid.
        winning_bid: Amount,
    },
}

/// A generated deal: identity, schedule and compiled plan.
#[derive(Debug)]
pub struct Deal {
    /// The deal's global id (generation order).
    pub id: u32,
    /// The deal kind.
    pub kind: DealKind,
    /// The driver round the deal starts in.
    pub start_round: u32,
    /// The home shard (where the deal is stepped).
    pub home: u32,
    /// Offset of the round in which the deal's last contract settles.
    pub settle_offset: u32,
    /// The compiled plan, sorted by emission offset; drained during the run.
    actions: std::collections::VecDeque<PlannedAction>,
    /// The auction's dynamic declaration step, if any.
    declare: Option<AuctionDeclare>,
    /// The end-state the verifier checks.
    pub expected: Expected,
}

impl Deal {
    /// Pops the next action if it is due at `offset` (or overdue, which the
    /// driver's round loop never produces).
    pub fn take_action_due(&mut self, offset: u32) -> Option<PlannedAction> {
        if self.actions.front().is_some_and(|a| a.offset <= offset) {
            self.actions.pop_front()
        } else {
            None
        }
    }

    /// Takes the declare hook if it is due at `offset`.
    pub fn take_declare_due(&mut self, offset: u32) -> Option<AuctionDeclare> {
        if self.declare.as_ref().is_some_and(|d| d.offset <= offset) {
            self.declare.take()
        } else {
            None
        }
    }

    /// Whether every scheduled action has been emitted.
    pub fn is_done(&self) -> bool {
        self.actions.is_empty() && self.declare.is_none()
    }

    /// The deal's settlement latency in rounds (start round inclusive).
    pub fn latency_rounds(&self) -> u32 {
        self.settle_offset + 1
    }
}

/// Generates the full deal list for `cfg`, sizing amounts from the shared
/// price path (one sample per driver round). Deal `i` starts in round
/// `i / deals_per_round`.
pub fn generate(cfg: &MarketConfig, path: &PricePath) -> Vec<Deal> {
    let pool = AccountPool::new(0, cfg.accounts);
    (0..cfg.deals)
        .map(|id| {
            let mut rng = SplitMix64::new(
                cfg.seed ^ (u64::from(id).wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_add(1),
            );
            let start_round = id / cfg.deals_per_round.max(1);
            let price = path.at_strict(start_round as usize);
            let unit = (price.max(1.0)) as u128;
            let roll = rng.below(100);
            if roll < 40 {
                build_hedged(id, start_round, unit, cfg, &pool, &mut rng)
            } else if roll < 60 {
                build_cycle3(id, start_round, unit, cfg, &pool, &mut rng)
            } else if roll < 80 {
                build_auction(id, start_round, unit, cfg, &pool, &mut rng)
            } else {
                build_brokered(id, start_round, unit, cfg, &pool, &mut rng)
            }
        })
        .collect()
}

/// Splits the generated deals into per-home-shard queues (id order within a
/// shard, which is also start-round order).
pub fn split_by_home(deals: Vec<Deal>, shards: u32) -> Vec<Vec<Deal>> {
    let mut per_shard: Vec<Vec<Deal>> = (0..shards).map(|_| Vec::new()).collect();
    for deal in deals {
        per_shard[deal.home as usize].push(deal);
    }
    per_shard
}

fn pick_shard(rng: &mut SplitMix64, shards: u32) -> u32 {
    rng.below(u64::from(shards)) as u32
}

fn pick_other_shard(rng: &mut SplitMix64, shards: u32, home: u32) -> u32 {
    if shards == 1 {
        return home;
    }
    loop {
        let s = pick_shard(rng, shards);
        if s != home {
            return s;
        }
    }
}

/// Emission offset for an action executing at `exec` rounds after the deal
/// start: remote actions ride the round-boundary batch, so they are emitted
/// one round early.
fn emit_offset(home: u32, target: u32, exec: u32) -> u32 {
    if target == home {
        exec
    } else {
        debug_assert!(exec > 0, "a remote action cannot execute in the spawn round");
        exec - 1
    }
}

struct Plan {
    home: u32,
    actions: Vec<PlannedAction>,
}

impl Plan {
    fn new(home: u32) -> Self {
        Plan { home, actions: Vec::new() }
    }

    fn publish(
        &mut self,
        exec: u32,
        target: u32,
        deal: u32,
        leg: u8,
        publisher: PartyId,
        contract: Box<dyn chainsim::Contract>,
    ) {
        self.actions.push(PlannedAction {
            offset: emit_offset(self.home, target, exec),
            target,
            msg: MarketMsg::Publish { deal, leg, publisher, contract },
        });
    }

    fn call(
        &mut self,
        exec: u32,
        target: u32,
        deal: u32,
        leg: u8,
        caller: PartyId,
        call: MarketCall,
    ) {
        self.actions.push(PlannedAction {
            offset: emit_offset(self.home, target, exec),
            target,
            msg: MarketMsg::Call { deal, leg, caller, call },
        });
    }

    fn finish(mut self) -> std::collections::VecDeque<PlannedAction> {
        // Stable by emission offset: actions at equal offsets keep plan
        // order, which is what sequences publish-before-call pairs.
        self.actions.sort_by_key(|a| a.offset);
        self.actions.into()
    }
}

/// §5.2 hedged swap. Deadlines are anchored at `(start_round + 1)·Δ` — the
/// height at which the first *executed* step (both premium deposits) runs —
/// so the contract schedule matches the conformance-tested two-party setup
/// exactly, just shifted in time.
fn build_hedged(
    id: u32,
    start_round: u32,
    unit: u128,
    cfg: &MarketConfig,
    pool: &AccountPool,
    rng: &mut SplitMix64,
) -> Deal {
    let parties = pool.draw_distinct(2, || rng.next_u64());
    let (leader, follower) = (parties[0], parties[1]);
    let home = pick_shard(rng, cfg.shards);
    let remote = pick_other_shard(rng, cfg.shards, home);
    let secret = Secret::from_seed(rng.next_u64());

    let leader_amount = Amount::new(unit * (1 + rng.below(40)) as u128);
    let follower_amount = Amount::new(unit * (1 + rng.below(40)) as u128);
    let premium_leader = Amount::new(leader_amount.value() / 20 + 1);
    let premium_follower = Amount::new(follower_amount.value() / 25 + 1);

    let deviation = {
        let walk = u64::from(cfg.walkaway_percent);
        let roll = rng.below(100);
        if roll < walk {
            HedgedDeviation::FollowerWalks
        } else if roll < walk * 2 {
            HedgedDeviation::LeaderWalks
        } else {
            HedgedDeviation::Clean
        }
    };

    let spec = HedgedSwapSpec {
        leader,
        follower,
        leader_token: TOKEN_ASSET,
        follower_token: TOKEN_ASSET,
        leader_native: NATIVE_ASSET,
        follower_native: NATIVE_ASSET,
        leader_amount,
        follower_amount,
        premium_leader,
        premium_follower,
        hashlock: secret.hashlock(),
    };
    let delta = cfg.delta_blocks;
    let anchor = Time(u64::from(start_round + 1) * delta);
    let schedule =
        TwoPartyConfig { delta_blocks: delta, ..TwoPartyConfig::default() }.hedged_schedule();
    let leader_leg = spec.leader_leg(anchor, &schedule);
    let follower_leg = spec.follower_leg(anchor, &schedule);

    let mut plan = Plan::new(home);
    // Leader (home) leg: publish at spawn, follower's premium at 1, leader's
    // escrow at 2.
    plan.publish(0, home, id, 0, leader, Box::new(HedgedEscrow::new(leader_leg)));
    plan.call(1, home, id, 0, follower, MarketCall::Hedged(HedgedEscrowMsg::DepositPremium));
    plan.call(2, home, id, 0, leader, MarketCall::Hedged(HedgedEscrowMsg::EscrowPrincipal));
    // Follower (remote) leg: publish + leader's premium execute at 1.
    plan.publish(1, remote, id, 1, follower, Box::new(HedgedEscrow::new(follower_leg)));
    plan.call(1, remote, id, 1, leader, MarketCall::Hedged(HedgedEscrowMsg::DepositPremium));

    let settle_offset = match deviation {
        HedgedDeviation::Clean => {
            // Follower escrows at 3; leader redeems remotely at 4 (revealing
            // the secret), follower redeems at home at 5.
            plan.call(
                3,
                remote,
                id,
                1,
                follower,
                MarketCall::Hedged(HedgedEscrowMsg::EscrowPrincipal),
            );
            plan.call(
                4,
                remote,
                id,
                1,
                leader,
                MarketCall::Hedged(HedgedEscrowMsg::Redeem { secret: secret.clone() }),
            );
            plan.call(
                5,
                home,
                id,
                0,
                follower,
                MarketCall::Hedged(HedgedEscrowMsg::Redeem { secret }),
            );
            5
        }
        HedgedDeviation::FollowerWalks => {
            // No follower escrow: the remote leg settles at its escrow
            // deadline (anchor + 4Δ, exec offset 5) refunding the leader's
            // premium; the home leg settles at its redeem deadline
            // (anchor + 6Δ, exec offset 7) paying `p_b` to the leader.
            plan.call(5, remote, id, 1, leader, MarketCall::Hedged(HedgedEscrowMsg::Settle));
            plan.call(7, home, id, 0, follower, MarketCall::Hedged(HedgedEscrowMsg::Settle));
            7
        }
        HedgedDeviation::LeaderWalks => {
            // Escrows complete but the leader never reveals: both legs time
            // out at their redeem deadlines and the premiums compensate the
            // escrowers (the follower nets `+p_a`).
            plan.call(
                3,
                remote,
                id,
                1,
                follower,
                MarketCall::Hedged(HedgedEscrowMsg::EscrowPrincipal),
            );
            plan.call(6, remote, id, 1, follower, MarketCall::Hedged(HedgedEscrowMsg::Settle));
            plan.call(7, home, id, 0, leader, MarketCall::Hedged(HedgedEscrowMsg::Settle));
            7
        }
    };

    Deal {
        id,
        kind: DealKind::HedgedSwap,
        start_round,
        home,
        settle_offset,
        actions: plan.finish(),
        declare: None,
        expected: Expected::Hedged {
            deviation,
            legs: [LegRef { shard: home, leg: 0 }, LegRef { shard: remote, leg: 1 }],
        },
    }
}

struct RingLeg {
    shard: u32,
    sender: PartyId,
    recipient: PartyId,
    asset: chainsim::AssetId,
    amount: Amount,
}

/// Shared builder for cycles and brokered sales: every leg escrows up
/// front, then the secret holder starts a redemption cascade in
/// `redeem_order` — each later redeemer observed the secret revealed one
/// round (one Δ) earlier.
fn build_ring(
    id: u32,
    kind: DealKind,
    start_round: u32,
    cfg: &MarketConfig,
    rng: &mut SplitMix64,
    legs: Vec<RingLeg>,
    redeem_order: Vec<usize>,
) -> Deal {
    debug_assert_eq!(legs.len(), redeem_order.len());
    let secret = Secret::from_seed(rng.next_u64());
    let delta = cfg.delta_blocks;
    let t0 = u64::from(start_round) * delta;
    let home = legs[0].shard;

    // Redemption position of each leg decides its timelock: the redeem at
    // position `p` executes at offset `2 + p` (height `t0 + (2 + p)·Δ`),
    // three Δ before the leg's timelock.
    let mut position = vec![0usize; legs.len()];
    for (p, leg) in redeem_order.iter().enumerate() {
        position[*leg] = p;
    }

    let mut plan = Plan::new(home);
    for (i, leg) in legs.iter().enumerate() {
        let timelock = Time(t0 + (5 + position[i] as u64) * delta);
        let contract = HtlcEscrow::new(
            leg.sender,
            leg.recipient,
            leg.asset,
            leg.amount,
            secret.hashlock(),
            timelock,
        );
        // Home legs publish + escrow at spawn; remote legs at offset 1.
        let exec = if leg.shard == home { 0 } else { 1 };
        plan.publish(exec, leg.shard, id, i as u8, leg.sender, Box::new(contract));
        plan.call(exec, leg.shard, id, i as u8, leg.sender, MarketCall::Htlc(HtlcMsg::Escrow));
    }
    for (p, leg_idx) in redeem_order.iter().enumerate() {
        let leg = &legs[*leg_idx];
        plan.call(
            2 + p as u32,
            leg.shard,
            id,
            *leg_idx as u8,
            leg.recipient,
            MarketCall::Htlc(HtlcMsg::Redeem { secret: secret.clone() }),
        );
    }

    let settle_offset = 2 + (legs.len() as u32 - 1);
    let expected_legs =
        legs.iter().enumerate().map(|(i, l)| LegRef { shard: l.shard, leg: i as u8 }).collect();
    Deal {
        id,
        kind,
        start_round,
        home,
        settle_offset,
        actions: plan.finish(),
        declare: None,
        expected: Expected::Ring { legs: expected_legs },
    }
}

/// A three-party token cycle P0→P1→P2→P0; P0 holds the secret and redeems
/// the incoming leg first.
fn build_cycle3(
    id: u32,
    start_round: u32,
    unit: u128,
    cfg: &MarketConfig,
    pool: &AccountPool,
    rng: &mut SplitMix64,
) -> Deal {
    let parties = pool.draw_distinct(3, || rng.next_u64());
    let home = pick_shard(rng, cfg.shards);
    let shards = [home, pick_shard(rng, cfg.shards), pick_shard(rng, cfg.shards)];
    let legs = (0..3)
        .map(|i| RingLeg {
            shard: shards[i],
            sender: parties[i],
            recipient: parties[(i + 1) % 3],
            asset: TOKEN_ASSET,
            amount: Amount::new(unit * (1 + rng.below(10)) as u128),
        })
        .collect();
    // P0 is the recipient of leg 2; the cascade unwinds the cycle backwards.
    build_ring(id, DealKind::Cycle3, start_round, cfg, rng, legs, vec![2, 1, 0])
}

/// A brokered sale: the buyer's commission (native, home shard) unlocks
/// first, then the payment and the item legs.
fn build_brokered(
    id: u32,
    start_round: u32,
    unit: u128,
    cfg: &MarketConfig,
    pool: &AccountPool,
    rng: &mut SplitMix64,
) -> Deal {
    let parties = pool.draw_distinct(3, || rng.next_u64());
    let (buyer, seller, broker) = (parties[0], parties[1], parties[2]);
    let home = pick_shard(rng, cfg.shards);
    let payment_shard = pick_shard(rng, cfg.shards);
    let item_shard = pick_shard(rng, cfg.shards);
    let price = Amount::new(unit * (2 + rng.below(30)) as u128);
    let commission = Amount::new(price.value() / 10 + 1);
    let legs = vec![
        RingLeg {
            shard: home,
            sender: buyer,
            recipient: broker,
            asset: NATIVE_ASSET,
            amount: commission,
        },
        RingLeg {
            shard: payment_shard,
            sender: buyer,
            recipient: seller,
            asset: NATIVE_ASSET,
            amount: price,
        },
        RingLeg {
            shard: item_shard,
            sender: seller,
            recipient: buyer,
            asset: TOKEN_ASSET,
            amount: Amount::new(unit),
        },
    ];
    // The broker (recipient of the commission leg) holds the secret.
    build_ring(id, DealKind::Brokered, start_round, cfg, rng, legs, vec![0, 1, 2])
}

/// A §9 hedged auction with three bidders: coin contract home, ticket
/// contract remote; bid deadline `t0 + 2Δ`, challenge deadline `t0 + 4Δ`.
fn build_auction(
    id: u32,
    start_round: u32,
    unit: u128,
    cfg: &MarketConfig,
    pool: &AccountPool,
    rng: &mut SplitMix64,
) -> Deal {
    let parties = pool.draw_distinct(4, || rng.next_u64());
    let auctioneer = parties[0];
    let bidders = vec![parties[1], parties[2], parties[3]];
    let home = pick_shard(rng, cfg.shards);
    let remote = pick_other_shard(rng, cfg.shards, home);
    let delta = cfg.delta_blocks;
    let t0 = u64::from(start_round) * delta;

    let secrets: Vec<(PartyId, Secret)> =
        bidders.iter().map(|b| (*b, Secret::from_seed(rng.next_u64()))).collect();
    let bids: Vec<(PartyId, Amount)> =
        bidders.iter().map(|b| (*b, Amount::new(unit * (10 + rng.below(90)) as u128))).collect();
    // Replicates `AuctionCoinContract::high_bidder`: highest amount, ties to
    // the lower party id. `bids` is drawn in pool order, not id order, so
    // a strictly-greater comparison alone is not enough.
    let (winner, winning_bid) = bids
        .iter()
        .copied()
        .max_by(|(pa, aa), (pb, ab)| aa.cmp(ab).then(pb.cmp(pa)))
        .expect("three bids");

    let params = AuctionParams {
        auctioneer,
        bidders: bidders.clone(),
        coin_asset: NATIVE_ASSET,
        ticket_asset: TOKEN_ASSET,
        ticket_amount: Amount::new(unit),
        premium_per_bidder: Amount::new(unit / 2 + 1),
        hashlocks: secrets.iter().map(|(b, s)| (*b, s.hashlock())).collect(),
        bid_deadline: Time(t0 + 2 * delta),
        challenge_deadline: Time(t0 + 4 * delta),
    };

    let mut plan = Plan::new(home);
    plan.publish(0, home, id, 0, auctioneer, Box::new(AuctionCoinContract::new(params.clone())));
    plan.call(0, home, id, 0, auctioneer, MarketCall::Coin(AuctionCoinMsg::DepositPremium));
    plan.publish(1, remote, id, 1, auctioneer, Box::new(AuctionTicketContract::new(params)));
    plan.call(1, remote, id, 1, auctioneer, MarketCall::Ticket(AuctionTicketMsg::EscrowTickets));
    for (bidder, amount) in &bids {
        plan.call(
            1,
            home,
            id,
            0,
            *bidder,
            MarketCall::Coin(AuctionCoinMsg::PlaceBid { amount: *amount }),
        );
    }
    // Declaration is dynamic (offset 2): the home shard reads the coin
    // contract's high bidder at the bid deadline and submits the hashkey on
    // both chains (ticket side lands at offset 3, inside the challenge
    // window).
    plan.call(4, home, id, 0, auctioneer, MarketCall::Coin(AuctionCoinMsg::Settle));
    plan.call(5, remote, id, 1, auctioneer, MarketCall::Ticket(AuctionTicketMsg::Settle));

    Deal {
        id,
        kind: DealKind::Auction,
        start_round,
        home,
        settle_offset: 5,
        actions: plan.finish(),
        declare: Some(AuctionDeclare {
            offset: 2,
            coin_leg: 0,
            ticket_leg: 1,
            ticket_shard: remote,
            caller: auctioneer,
            secrets,
        }),
        expected: Expected::Auction {
            coin: LegRef { shard: home, leg: 0 },
            ticket: LegRef { shard: remote, leg: 1 },
            winner,
            winning_bid,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> MarketConfig {
        MarketConfig {
            accounts: 64,
            deals: 48,
            deals_per_round: 8,
            shards: 3,
            ..MarketConfig::default()
        }
    }

    fn path_for(cfg: &MarketConfig) -> PricePath {
        PricePath::gbm(100.0, 0.0, 0.5, 1.0 / 365.0, cfg.rounds() as usize, cfg.seed)
    }

    #[test]
    fn generation_is_deterministic_and_well_formed() {
        let cfg = small_cfg();
        let path = path_for(&cfg);
        let a = generate(&cfg, &path);
        let b = generate(&cfg, &path);
        assert_eq!(a.len(), 48);
        for (da, db) in a.iter().zip(&b) {
            assert_eq!(da.id, db.id);
            assert_eq!(da.kind, db.kind);
            assert_eq!(da.home, db.home);
            assert_eq!(da.start_round, db.start_round);
            assert_eq!(da.settle_offset, db.settle_offset);
            assert!(da.settle_offset <= MAX_SETTLE_OFFSET);
            assert!(da.home < cfg.shards);
            assert_eq!(da.start_round, da.id / cfg.deals_per_round);
        }
    }

    #[test]
    fn mix_covers_all_deal_kinds() {
        let cfg = MarketConfig { deals: 200, ..small_cfg() };
        let path = path_for(&cfg);
        let deals = generate(&cfg, &path);
        for kind in [DealKind::HedgedSwap, DealKind::Cycle3, DealKind::Auction, DealKind::Brokered]
        {
            assert!(
                deals.iter().any(|d| d.kind == kind),
                "no {} deals in a 200-deal mix",
                kind.label()
            );
        }
    }

    #[test]
    fn plans_are_sorted_and_remote_actions_are_emitted_early() {
        let cfg = small_cfg();
        let path = path_for(&cfg);
        for mut deal in generate(&cfg, &path) {
            let mut last = 0;
            while let Some(action) = deal.take_action_due(u32::MAX) {
                assert!(action.offset >= last, "plan out of order for deal {}", deal.id);
                last = action.offset;
                assert!(action.offset <= deal.settle_offset);
            }
            assert!(deal.declare.is_none() || deal.kind == DealKind::Auction);
        }
    }

    #[test]
    fn split_by_home_partitions_all_deals() {
        let cfg = small_cfg();
        let path = path_for(&cfg);
        let deals = generate(&cfg, &path);
        let total = deals.len();
        let per_shard = split_by_home(deals, cfg.shards);
        assert_eq!(per_shard.len(), 3);
        assert_eq!(per_shard.iter().map(Vec::len).sum::<usize>(), total);
        for (s, queue) in per_shard.iter().enumerate() {
            assert!(queue.iter().all(|d| d.home == s as u32));
            assert!(queue.windows(2).all(|w| w[0].start_round <= w[1].start_round));
        }
    }
}
