//! Deadline-boundary pinning for every contract: the exact semantics of
//! acting at `deadline − 1` (the last legal instant), at exactly the
//! deadline, at `not_before − 1` (one tick early) and at exactly
//! `not_before`.
//!
//! The convention across the crate is uniform and these tests keep it that
//! way: **"before `d`" deadlines are exclusive** (`now < d` accepts,
//! `now == d` rejects) and **"from `t`" triggers are inclusive**
//! (`now == t` accepts, `now == t − 1` rejects). The `Procrastinate`
//! strategies in `protocols::script` drive every emission to these exact
//! edges, so an off-by-one here surfaces as a hedged-theorem violation in
//! the model-checking sweeps; this suite pins the boundaries contract by
//! contract so such a regression fails with a named edge instead.

use std::sync::Arc;

use chainsim::{
    AccountRef, Amount, ContractAddr, FinalityParams, PartyId, ReorgEvent, ReorgPolicy, Time, World,
};
use contracts::{
    ArcDeadlines, ArcEscrow, ArcEscrowMsg, ArcEscrowParams, AuctionCoinContract, AuctionCoinMsg,
    AuctionParams, AuctionTicketContract, AuctionTicketMsg, Hashkey, HashkeyVerifyCache,
    HedgedEscrow, HedgedEscrowMsg, HedgedEscrowParams, HedgedPremiumState, HedgedPrincipalState,
    HtlcEscrow, HtlcMsg, HtlcState, PartyKeys, PremiumSlotState, PrincipalState,
};
use cryptosim::{KeyPair, Secret};
use swapgraph::premiums::RedemptionPremiumEvaluator;
use swapgraph::Digraph;

const ALICE: PartyId = PartyId(0);
const BOB: PartyId = PartyId(1);

// ---------------------------------------------------------------------------
// HTLC (§5.1): a single timelock guards escrow and redemption exclusively
// and unlocks the refund inclusively.
// ---------------------------------------------------------------------------

const HTLC_TIMELOCK: Time = Time(10);

struct HtlcFixture {
    world: World,
    addr: ContractAddr,
    secret: Secret,
}

fn htlc_fixture() -> HtlcFixture {
    let mut world = World::new(1);
    let chain = world.add_chain("apricot");
    let token = world.register_asset("token");
    world.chain_mut(chain).mint(ALICE, token, Amount::new(100));
    let secret = Secret::from_seed(42);
    let escrow =
        HtlcEscrow::new(ALICE, BOB, token, Amount::new(100), secret.hashlock(), HTLC_TIMELOCK);
    let addr = world.publish(chain, Box::new(escrow));
    HtlcFixture { world, addr, secret }
}

fn htlc_state(f: &HtlcFixture) -> HtlcState {
    f.world.chain(f.addr.chain).contract_as::<HtlcEscrow>(f.addr.contract).unwrap().state()
}

#[test]
fn htlc_escrow_accepts_the_last_tick_and_rejects_the_timelock_tick() {
    let mut f = htlc_fixture();
    f.world.advance_blocks(HTLC_TIMELOCK.height() - 1);
    f.world.call(ALICE, f.addr, &HtlcMsg::Escrow).unwrap();
    assert_eq!(htlc_state(&f), HtlcState::Escrowed);

    let mut f = htlc_fixture();
    f.world.advance_blocks(HTLC_TIMELOCK.height());
    assert!(f.world.call(ALICE, f.addr, &HtlcMsg::Escrow).is_err());
    assert_eq!(htlc_state(&f), HtlcState::Created);
}

#[test]
fn htlc_redeem_accepts_the_last_tick_and_rejects_the_timelock_tick() {
    let mut f = htlc_fixture();
    f.world.call(ALICE, f.addr, &HtlcMsg::Escrow).unwrap();
    f.world.advance_blocks(HTLC_TIMELOCK.height() - 1);
    let secret = f.secret.clone();
    f.world.call(BOB, f.addr, &HtlcMsg::Redeem { secret }).unwrap();
    assert_eq!(htlc_state(&f), HtlcState::Redeemed);

    let mut f = htlc_fixture();
    f.world.call(ALICE, f.addr, &HtlcMsg::Escrow).unwrap();
    f.world.advance_blocks(HTLC_TIMELOCK.height());
    let secret = f.secret.clone();
    assert!(f.world.call(BOB, f.addr, &HtlcMsg::Redeem { secret }).is_err());
    assert_eq!(htlc_state(&f), HtlcState::Escrowed);
}

#[test]
fn htlc_refund_rejects_one_tick_early_and_accepts_the_timelock_tick() {
    let mut f = htlc_fixture();
    f.world.call(ALICE, f.addr, &HtlcMsg::Escrow).unwrap();
    f.world.advance_blocks(HTLC_TIMELOCK.height() - 1);
    assert!(f.world.call(BOB, f.addr, &HtlcMsg::Refund).is_err());
    f.world.advance_blocks(1);
    f.world.call(BOB, f.addr, &HtlcMsg::Refund).unwrap();
    assert_eq!(htlc_state(&f), HtlcState::Refunded);
}

// ---------------------------------------------------------------------------
// Hedged escrow (§5.2): premium/escrow/redeem deadlines are exclusive, the
// two settle rules unlock inclusively at the escrow and redeem deadlines.
// ---------------------------------------------------------------------------

const HEDGED_PREMIUM: Time = Time(2);
const HEDGED_ESCROW: Time = Time(6);
const HEDGED_REDEEM: Time = Time(9);

struct HedgedFixture {
    world: World,
    addr: ContractAddr,
    secret: Secret,
}

fn hedged_fixture() -> HedgedFixture {
    let mut world = World::new(1);
    let chain = world.add_chain("banana");
    let native = world.chain(chain).native_asset();
    let token = world.register_asset("token");
    world.chain_mut(chain).mint(BOB, token, Amount::new(100));
    world.chain_mut(chain).mint(ALICE, native, Amount::new(10));
    let secret = Secret::from_seed(7);
    let escrow = HedgedEscrow::new(HedgedEscrowParams {
        escrower: BOB,
        redeemer: ALICE,
        principal_asset: token,
        principal_amount: Amount::new(100),
        premium_asset: native,
        premium_amount: Amount::new(3),
        hashlock: secret.hashlock(),
        premium_deadline: HEDGED_PREMIUM,
        escrow_deadline: HEDGED_ESCROW,
        redeem_deadline: HEDGED_REDEEM,
    });
    let addr = world.publish(chain, Box::new(escrow));
    HedgedFixture { world, addr, secret }
}

fn hedged(f: &HedgedFixture) -> &HedgedEscrow {
    f.world.chain(f.addr.chain).contract_as::<HedgedEscrow>(f.addr.contract).unwrap()
}

#[test]
fn hedged_premium_deposit_edges() {
    let mut f = hedged_fixture();
    f.world.advance_blocks(HEDGED_PREMIUM.height() - 1);
    f.world.call(ALICE, f.addr, &HedgedEscrowMsg::DepositPremium).unwrap();
    assert_eq!(hedged(&f).premium_state(), HedgedPremiumState::Held);

    let mut f = hedged_fixture();
    f.world.advance_blocks(HEDGED_PREMIUM.height());
    assert!(f.world.call(ALICE, f.addr, &HedgedEscrowMsg::DepositPremium).is_err());
}

#[test]
fn hedged_escrow_edges() {
    let mut f = hedged_fixture();
    f.world.call(ALICE, f.addr, &HedgedEscrowMsg::DepositPremium).unwrap();
    f.world.advance_blocks(HEDGED_ESCROW.height() - 1);
    f.world.call(BOB, f.addr, &HedgedEscrowMsg::EscrowPrincipal).unwrap();
    assert_eq!(hedged(&f).principal_state(), HedgedPrincipalState::Held);

    let mut f = hedged_fixture();
    f.world.call(ALICE, f.addr, &HedgedEscrowMsg::DepositPremium).unwrap();
    f.world.advance_blocks(HEDGED_ESCROW.height());
    assert!(f.world.call(BOB, f.addr, &HedgedEscrowMsg::EscrowPrincipal).is_err());
}

#[test]
fn hedged_redeem_edges() {
    let mut f = hedged_fixture();
    f.world.call(ALICE, f.addr, &HedgedEscrowMsg::DepositPremium).unwrap();
    f.world.advance_blocks(1);
    f.world.call(BOB, f.addr, &HedgedEscrowMsg::EscrowPrincipal).unwrap();
    f.world.advance_blocks(HEDGED_REDEEM.height() - 2);
    let secret = f.secret.clone();
    f.world.call(ALICE, f.addr, &HedgedEscrowMsg::Redeem { secret }).unwrap();
    assert_eq!(hedged(&f).principal_state(), HedgedPrincipalState::Redeemed);
    assert_eq!(hedged(&f).premium_state(), HedgedPremiumState::Refunded);

    let mut f = hedged_fixture();
    f.world.call(ALICE, f.addr, &HedgedEscrowMsg::DepositPremium).unwrap();
    f.world.advance_blocks(1);
    f.world.call(BOB, f.addr, &HedgedEscrowMsg::EscrowPrincipal).unwrap();
    f.world.advance_blocks(HEDGED_REDEEM.height() - 1);
    let secret = f.secret.clone();
    assert!(f.world.call(ALICE, f.addr, &HedgedEscrowMsg::Redeem { secret }).is_err());
}

#[test]
fn hedged_settle_unlocks_inclusively_at_each_deadline() {
    // Premium refund (principal never escrowed): locked at E − 1, open at E.
    let mut f = hedged_fixture();
    f.world.call(ALICE, f.addr, &HedgedEscrowMsg::DepositPremium).unwrap();
    f.world.advance_blocks(HEDGED_ESCROW.height() - 1);
    assert!(f.world.call(ALICE, f.addr, &HedgedEscrowMsg::Settle).is_err());
    f.world.advance_blocks(1);
    f.world.call(ALICE, f.addr, &HedgedEscrowMsg::Settle).unwrap();
    assert_eq!(hedged(&f).premium_state(), HedgedPremiumState::Refunded);

    // Redemption timeout: locked at R − 1, open at R.
    let mut f = hedged_fixture();
    f.world.call(ALICE, f.addr, &HedgedEscrowMsg::DepositPremium).unwrap();
    f.world.advance_blocks(1);
    f.world.call(BOB, f.addr, &HedgedEscrowMsg::EscrowPrincipal).unwrap();
    f.world.advance_blocks(HEDGED_REDEEM.height() - 2);
    assert!(f.world.call(BOB, f.addr, &HedgedEscrowMsg::Settle).is_err());
    f.world.advance_blocks(1);
    f.world.call(BOB, f.addr, &HedgedEscrowMsg::Settle).unwrap();
    assert_eq!(hedged(&f).principal_state(), HedgedPrincipalState::Refunded);
    assert_eq!(hedged(&f).premium_state(), HedgedPremiumState::PaidToEscrower);
}

// ---------------------------------------------------------------------------
// Arc escrow (§7/§8): phase deadlines are exclusive; redemption premiums
// and hashkeys carry per-path-length deadlines; settlement rules unlock
// inclusively.
// ---------------------------------------------------------------------------

const ARC_DELTA: u64 = 2;
const ARC_EPD: Time = Time(4); // escrow premium deadline (nΔ with n=2)
const ARC_RPD: Time = Time(8); // redemption premium phase deadline (2nΔ)
const ARC_AED: Time = Time(12); // asset escrow deadline (3nΔ)
const ARC_FINAL: Time = Time(20);

struct ArcFixture {
    world: World,
    addr: ContractAddr,
    secret: Secret,
    pairs: Vec<KeyPair>,
}

/// Arc (B, A) of a two-party cycle with leader A: path lengths 1 (A's own
/// premium) and 2 are both live, so the per-path deadlines differ.
fn arc_fixture() -> ArcFixture {
    let mut world = World::new(1);
    let chain = world.add_chain("banana");
    let native = world.chain(chain).native_asset();
    let token = world.register_asset("token");
    world.chain_mut(chain).mint(BOB, token, Amount::new(50));
    world.chain_mut(chain).mint(BOB, native, Amount::new(50));
    world.chain_mut(chain).mint(ALICE, native, Amount::new(50));

    let mut keys = PartyKeys::new();
    let mut pairs = Vec::new();
    for i in 0..2u32 {
        let pair = KeyPair::from_seed(u64::from(i));
        world.directory_mut().register(&pair);
        keys.insert(PartyId(i), pair.public());
        pairs.push(pair);
    }
    let mut digraph = Digraph::new();
    digraph.add_arc(0, 1);
    digraph.add_arc(1, 0);

    let secret = Secret::from_seed(11);
    let escrow = ArcEscrow::new(ArcEscrowParams {
        sender: BOB,
        receiver: ALICE,
        asset: token,
        amount: Amount::new(50),
        premium_asset: native,
        base_premium: Amount::new(1),
        escrow_premium: Amount::new(5),
        verify_cache: HashkeyVerifyCache::for_deal(&digraph, &keys),
        premium_evaluator: Arc::new(RedemptionPremiumEvaluator::new(&digraph)),
        hashlocks: Arc::new(vec![(ALICE, secret.hashlock())]),
        digraph: Arc::new(digraph),
        keys: Arc::new(keys),
        deadlines: ArcDeadlines {
            escrow_premium_deadline: ARC_EPD,
            redemption_premium_deadline: ARC_RPD,
            asset_escrow_deadline: ARC_AED,
            hashkey_timeout_base: ARC_AED,
            delta_blocks: ARC_DELTA,
            final_deadline: ARC_FINAL,
        },
    });
    let addr = world.publish(chain, Box::new(escrow));
    ArcFixture { world, addr, secret, pairs }
}

fn arc(f: &ArcFixture) -> &ArcEscrow {
    f.world.chain(f.addr.chain).contract_as::<ArcEscrow>(f.addr.contract).unwrap()
}

fn deposit_own_premium(f: &mut ArcFixture) {
    f.world
        .call(
            ALICE,
            f.addr,
            &ArcEscrowMsg::DepositRedemptionPremium { leader: ALICE, path: vec![ALICE] },
        )
        .unwrap();
}

#[test]
fn arc_escrow_premium_edges() {
    let mut f = arc_fixture();
    f.world.advance_blocks(ARC_EPD.height() - 1);
    f.world.call(BOB, f.addr, &ArcEscrowMsg::DepositEscrowPremium).unwrap();
    assert_eq!(arc(&f).escrow_premium_state(), PremiumSlotState::Held);

    let mut f = arc_fixture();
    f.world.advance_blocks(ARC_EPD.height());
    assert!(f.world.call(BOB, f.addr, &ArcEscrowMsg::DepositEscrowPremium).is_err());
}

#[test]
fn arc_redemption_premium_deadline_scales_with_path_length() {
    // A path of length ℓ is accepted strictly before
    // `escrow_premium_deadline + ℓ·Δ`: the leader's own (length-1) premium
    // closes at 4 + 2 = 6, well before the phase deadline 8, so a
    // last-instant leader can never strand its followers (the foregrounded
    // deadline-edge fix of this revision).
    let edge = ARC_EPD.plus(ARC_DELTA);
    let mut f = arc_fixture();
    f.world.advance_blocks(edge.height() - 1);
    deposit_own_premium(&mut f);
    assert_eq!(arc(&f).redemption_premium_state(ALICE), PremiumSlotState::Held);

    let mut f = arc_fixture();
    f.world.advance_blocks(edge.height());
    assert!(f
        .world
        .call(
            ALICE,
            f.addr,
            &ArcEscrowMsg::DepositRedemptionPremium { leader: ALICE, path: vec![ALICE] },
        )
        .is_err());

    // The per-path deadline never exceeds the phase-wide one.
    let deadlines = arc(&f).params().deadlines.clone();
    assert_eq!(deadlines.redemption_path_deadline(1), Time(6));
    assert_eq!(deadlines.redemption_path_deadline(2), ARC_RPD);
    assert_eq!(deadlines.redemption_path_deadline(7), ARC_RPD, "capped at the phase deadline");
}

#[test]
fn arc_asset_escrow_edges() {
    let mut f = arc_fixture();
    deposit_own_premium(&mut f);
    f.world.advance_blocks(ARC_AED.height() - 1);
    f.world.call(BOB, f.addr, &ArcEscrowMsg::EscrowAsset).unwrap();
    assert_eq!(arc(&f).principal_state(), PrincipalState::Held);

    let mut f = arc_fixture();
    deposit_own_premium(&mut f);
    f.world.advance_blocks(ARC_AED.height());
    assert!(f.world.call(BOB, f.addr, &ArcEscrowMsg::EscrowAsset).is_err());
}

#[test]
fn arc_hashkey_edges_scale_with_path_length() {
    // Path length 1: accepted strictly before base + 1·Δ = 14.
    let edge = ARC_AED.plus(ARC_DELTA);
    let mut f = arc_fixture();
    deposit_own_premium(&mut f);
    f.world.advance_blocks(2);
    f.world.call(BOB, f.addr, &ArcEscrowMsg::EscrowAsset).unwrap();
    f.world.advance_blocks(edge.height() - 3);
    let hashkey = Hashkey::from_leader(ALICE, f.secret.clone(), &f.pairs[0]);
    f.world.call(ALICE, f.addr, &ArcEscrowMsg::PresentHashkey { hashkey }).unwrap();
    assert_eq!(arc(&f).principal_state(), PrincipalState::Redeemed);

    let mut f = arc_fixture();
    deposit_own_premium(&mut f);
    f.world.advance_blocks(2);
    f.world.call(BOB, f.addr, &ArcEscrowMsg::EscrowAsset).unwrap();
    f.world.advance_blocks(edge.height() - 2);
    let hashkey = Hashkey::from_leader(ALICE, f.secret.clone(), &f.pairs[0]);
    assert!(f.world.call(ALICE, f.addr, &ArcEscrowMsg::PresentHashkey { hashkey }).is_err());
    assert_eq!(arc(&f).principal_state(), PrincipalState::Held);
}

#[test]
fn arc_settle_unlocks_inclusively() {
    // Escrow-premium disposition unlocks at the asset-escrow deadline.
    let mut f = arc_fixture();
    f.world.call(BOB, f.addr, &ArcEscrowMsg::DepositEscrowPremium).unwrap();
    f.world.advance_blocks(ARC_AED.height() - 1);
    assert!(f.world.call(BOB, f.addr, &ArcEscrowMsg::Settle).is_err());
    f.world.advance_blocks(1);
    f.world.call(BOB, f.addr, &ArcEscrowMsg::Settle).unwrap();
    assert_eq!(arc(&f).escrow_premium_state(), PremiumSlotState::Refunded);

    // Principal refund and premium forfeiture unlock at the final deadline.
    let mut f = arc_fixture();
    deposit_own_premium(&mut f);
    f.world.advance_blocks(2);
    f.world.call(BOB, f.addr, &ArcEscrowMsg::EscrowAsset).unwrap();
    f.world.advance_blocks(ARC_FINAL.height() - 3);
    assert!(f.world.call(BOB, f.addr, &ArcEscrowMsg::Settle).is_err());
    f.world.advance_blocks(1);
    f.world.call(BOB, f.addr, &ArcEscrowMsg::Settle).unwrap();
    assert_eq!(arc(&f).principal_state(), PrincipalState::Refunded);
    assert_eq!(arc(&f).redemption_premium_state(ALICE), PremiumSlotState::PaidToCounterparty);
}

// ---------------------------------------------------------------------------
// Auction (§9): bids close exclusively at the bid deadline; hashkeys are a
// half-open window [bid_deadline, challenge_deadline); settlement unlocks
// inclusively at the challenge deadline.
// ---------------------------------------------------------------------------

const BID_DEADLINE: Time = Time(4);
const CHALLENGE_DEADLINE: Time = Time(12);

struct AuctionFixture {
    world: World,
    coin_addr: ContractAddr,
    ticket_addr: ContractAddr,
    secret_bob: Secret,
}

fn auction_fixture() -> AuctionFixture {
    let mut world = World::new(1);
    let coin_chain = world.add_chain("coin");
    let ticket_chain = world.add_chain("ticket");
    let coin = world.register_asset("coin");
    let ticket = world.register_asset("ticket");
    world.chain_mut(coin_chain).mint(ALICE, coin, Amount::new(10));
    world.chain_mut(coin_chain).mint(BOB, coin, Amount::new(100));
    world.chain_mut(ticket_chain).mint(ALICE, ticket, Amount::new(1));
    let secret_bob = Secret::from_seed(101);
    let params = AuctionParams {
        auctioneer: ALICE,
        bidders: vec![BOB],
        coin_asset: coin,
        ticket_asset: ticket,
        ticket_amount: Amount::new(1),
        premium_per_bidder: Amount::new(2),
        hashlocks: vec![(BOB, secret_bob.hashlock())],
        bid_deadline: BID_DEADLINE,
        challenge_deadline: CHALLENGE_DEADLINE,
    };
    let coin_addr = world.publish(coin_chain, Box::new(AuctionCoinContract::new(params.clone())));
    let ticket_addr = world.publish(ticket_chain, Box::new(AuctionTicketContract::new(params)));
    AuctionFixture { world, coin_addr, ticket_addr, secret_bob }
}

#[test]
fn auction_bid_and_endowment_edges() {
    // Bids are refused before the endowment, whatever the clock says.
    let mut f = auction_fixture();
    assert!(f
        .world
        .call(BOB, f.coin_addr, &AuctionCoinMsg::PlaceBid { amount: Amount::new(6) })
        .is_err());

    // Endowment and bid at the last tick before the bid deadline.
    let mut f = auction_fixture();
    f.world.advance_blocks(BID_DEADLINE.height() - 1);
    f.world.call(ALICE, f.coin_addr, &AuctionCoinMsg::DepositPremium).unwrap();
    f.world.call(ALICE, f.ticket_addr, &AuctionTicketMsg::EscrowTickets).unwrap();
    f.world.call(BOB, f.coin_addr, &AuctionCoinMsg::PlaceBid { amount: Amount::new(6) }).unwrap();

    // All three rejected at exactly the bid deadline.
    let mut f = auction_fixture();
    f.world.advance_blocks(BID_DEADLINE.height());
    assert!(f.world.call(ALICE, f.coin_addr, &AuctionCoinMsg::DepositPremium).is_err());
    assert!(f.world.call(ALICE, f.ticket_addr, &AuctionTicketMsg::EscrowTickets).is_err());
}

#[test]
fn auction_hashkey_window_is_half_open() {
    let mut f = auction_fixture();
    f.world.call(ALICE, f.coin_addr, &AuctionCoinMsg::DepositPremium).unwrap();

    // One tick before the bid deadline: too early on both chains.
    f.world.advance_blocks(BID_DEADLINE.height() - 1);
    let msg = AuctionCoinMsg::SubmitHashkey { winner: BOB, secret: f.secret_bob.clone() };
    assert!(f.world.call(ALICE, f.coin_addr, &msg).is_err());
    let tmsg = AuctionTicketMsg::SubmitHashkey { winner: BOB, secret: f.secret_bob.clone() };
    assert!(f.world.call(ALICE, f.ticket_addr, &tmsg).is_err());

    // Exactly at the bid deadline: accepted (inclusive opening edge).
    f.world.advance_blocks(1);
    f.world.call(ALICE, f.coin_addr, &msg).unwrap();
    f.world.call(ALICE, f.ticket_addr, &tmsg).unwrap();

    // Exactly at the challenge deadline: rejected (exclusive closing edge);
    // one tick earlier is the last legal instant.
    let mut f = auction_fixture();
    f.world.call(ALICE, f.coin_addr, &AuctionCoinMsg::DepositPremium).unwrap();
    f.world.advance_blocks(CHALLENGE_DEADLINE.height() - 1);
    let msg = AuctionCoinMsg::SubmitHashkey { winner: BOB, secret: f.secret_bob.clone() };
    f.world.call(ALICE, f.coin_addr, &msg).unwrap();
    f.world.advance_blocks(1);
    let tmsg = AuctionTicketMsg::SubmitHashkey { winner: BOB, secret: f.secret_bob.clone() };
    assert!(f.world.call(ALICE, f.ticket_addr, &tmsg).is_err());
}

#[test]
fn auction_settle_unlocks_inclusively_at_the_challenge_deadline() {
    let mut f = auction_fixture();
    f.world.call(ALICE, f.coin_addr, &AuctionCoinMsg::DepositPremium).unwrap();
    f.world.call(ALICE, f.ticket_addr, &AuctionTicketMsg::EscrowTickets).unwrap();
    f.world.advance_blocks(CHALLENGE_DEADLINE.height() - 1);
    assert!(f.world.call(BOB, f.coin_addr, &AuctionCoinMsg::Settle).is_err());
    assert!(f.world.call(BOB, f.ticket_addr, &AuctionTicketMsg::Settle).is_err());
    f.world.advance_blocks(1);
    f.world.call(BOB, f.coin_addr, &AuctionCoinMsg::Settle).unwrap();
    f.world.call(BOB, f.ticket_addr, &AuctionTicketMsg::Settle).unwrap();
}

// ---------------------------------------------------------------------------
// Sub-Δ crash outages on the deadline tick. The sampled model-checking tier
// draws variable-length outages (`Fault::Outage`, ¼Δ…4Δ in quarter-Δ
// steps); these fixtures pin the contract-level semantics those runs rest
// on. A party that goes dark for ½Δ while intending to act recovers in
// time iff its outage ends strictly before the deadline — the contract
// does not care that the originally intended tick was missed. An outage
// that swallows the last legal tick loses the *action* but never the
// *funds*: the inclusive settle/refund path recovers them on the deadline
// tick itself. With the protocol default Δ = 2, ½Δ is 1 block
// (`outage_blocks(2, 2)`) and a deadline-crossing full Δ is 2.
// ---------------------------------------------------------------------------

const HALF_DELTA: u64 = 1;
const FULL_DELTA: u64 = 2;

#[test]
fn htlc_redeem_survives_a_half_delta_outage_but_refund_recovers_a_crossing_one() {
    // Bob means to redeem at T − 2 but goes dark for ½Δ: his recovery tick
    // T − 1 is still strictly before the timelock, so the redeem lands.
    let mut f = htlc_fixture();
    f.world.call(ALICE, f.addr, &HtlcMsg::Escrow).unwrap();
    f.world.advance_blocks(HTLC_TIMELOCK.height() - 1 - HALF_DELTA);
    f.world.advance_blocks(HALF_DELTA); // the outage: no action emitted
    let secret = f.secret.clone();
    f.world.call(BOB, f.addr, &HtlcMsg::Redeem { secret }).unwrap();
    assert_eq!(htlc_state(&f), HtlcState::Redeemed);

    // A full-Δ outage from the same intent tick swallows the last legal
    // instant: the redeem is rejected at T, and the refund recovers the
    // principal on that very tick (inclusive opening edge).
    let mut f = htlc_fixture();
    f.world.call(ALICE, f.addr, &HtlcMsg::Escrow).unwrap();
    f.world.advance_blocks(HTLC_TIMELOCK.height() - FULL_DELTA);
    f.world.advance_blocks(FULL_DELTA);
    let secret = f.secret.clone();
    assert!(f.world.call(BOB, f.addr, &HtlcMsg::Redeem { secret }).is_err());
    f.world.call(ALICE, f.addr, &HtlcMsg::Refund).unwrap();
    assert_eq!(htlc_state(&f), HtlcState::Refunded);
}

#[test]
fn hedged_escrow_survives_a_half_delta_outage_but_settle_recovers_a_crossing_one() {
    // Bob means to escrow the principal at E − 2; a ½Δ outage still leaves
    // him the last legal tick E − 1.
    let mut f = hedged_fixture();
    f.world.call(ALICE, f.addr, &HedgedEscrowMsg::DepositPremium).unwrap();
    f.world.advance_blocks(HEDGED_ESCROW.height() - 1 - HALF_DELTA);
    f.world.advance_blocks(HALF_DELTA);
    f.world.call(BOB, f.addr, &HedgedEscrowMsg::EscrowPrincipal).unwrap();
    assert_eq!(hedged(&f).principal_state(), HedgedPrincipalState::Held);

    // A Δ-long outage crosses E: the escrow is rejected, and Alice's
    // settle unlocks on the same tick to recover her premium.
    let mut f = hedged_fixture();
    f.world.call(ALICE, f.addr, &HedgedEscrowMsg::DepositPremium).unwrap();
    f.world.advance_blocks(HEDGED_ESCROW.height() - FULL_DELTA);
    f.world.advance_blocks(FULL_DELTA);
    assert!(f.world.call(BOB, f.addr, &HedgedEscrowMsg::EscrowPrincipal).is_err());
    f.world.call(ALICE, f.addr, &HedgedEscrowMsg::Settle).unwrap();
    assert_eq!(hedged(&f).premium_state(), HedgedPremiumState::Refunded);
}

#[test]
fn arc_asset_escrow_survives_a_half_delta_outage_but_settle_recovers_a_crossing_one() {
    let mut f = arc_fixture();
    deposit_own_premium(&mut f);
    f.world.advance_blocks(ARC_AED.height() - 1 - HALF_DELTA);
    f.world.advance_blocks(HALF_DELTA);
    f.world.call(BOB, f.addr, &ArcEscrowMsg::EscrowAsset).unwrap();
    assert_eq!(arc(&f).principal_state(), PrincipalState::Held);

    // A Δ-long outage crosses the asset-escrow deadline: the escrow is
    // rejected, and Bob's own escrow premium is recoverable by settle on
    // that same tick.
    let mut f = arc_fixture();
    f.world.call(BOB, f.addr, &ArcEscrowMsg::DepositEscrowPremium).unwrap();
    f.world.advance_blocks(ARC_AED.height() - FULL_DELTA);
    f.world.advance_blocks(FULL_DELTA);
    assert!(f.world.call(BOB, f.addr, &ArcEscrowMsg::EscrowAsset).is_err());
    f.world.call(BOB, f.addr, &ArcEscrowMsg::Settle).unwrap();
    assert_eq!(arc(&f).escrow_premium_state(), PremiumSlotState::Refunded);
}

// ---------------------------------------------------------------------------
// Reorgs on the deadline tick. With finality lag configured, the last
// `depth` rounds are speculative: a reorg rewinds them and re-delivers (or
// drops) the rewound calls at the reorg height — which may now sit at or
// past a deadline the original execution beat. These pins fix the
// contract-level consequences: a censored (DropCalls) last-tick action
// loses the *action* but never the *funds* (the inclusive settle/refund
// path still recovers them), and a re-delivered action survives exactly
// when the reorg height still beats its deadline.
// ---------------------------------------------------------------------------

#[test]
fn drop_calls_reorg_censors_a_last_tick_redeem_but_refund_recovers() {
    let mut f = htlc_fixture();
    f.world.set_finality(f.addr.chain, FinalityParams { depth: 1, delta: 0 });
    f.world.call(ALICE, f.addr, &HtlcMsg::Escrow).unwrap();
    for _ in 0..HTLC_TIMELOCK.height() - 1 {
        f.world.advance_delta();
    }
    // Bob redeems at the last legal tick T − 1…
    let secret = f.secret.clone();
    f.world.call(BOB, f.addr, &HtlcMsg::Redeem { secret }).unwrap();
    assert_eq!(htlc_state(&f), HtlcState::Redeemed);
    // …but a depth-1 DropCalls reorg at this round's close censors it.
    f.world.schedule_reorg(ReorgEvent {
        chain: f.addr.chain,
        at_round: f.world.rounds_elapsed(),
        depth: 1,
        policy: ReorgPolicy::DropCalls,
    });
    f.world.advance_delta();
    assert_eq!(htlc_state(&f), HtlcState::Escrowed, "the censored redeem must be unwound");
    let stats = f.world.chain(f.addr.chain).reorg_stats();
    assert_eq!((stats.reorgs, stats.rewound_calls, stats.dropped_calls), (1, 1, 1));
    // The clock is now at T: the principal is past the redeem window but
    // never stranded — Alice's inclusive refund recovers it.
    f.world.call(ALICE, f.addr, &HtlcMsg::Refund).unwrap();
    assert_eq!(htlc_state(&f), HtlcState::Refunded);
}

#[test]
fn redelivered_premium_survives_at_its_height_but_a_deeper_reorg_misses_the_deadline() {
    // Depth 1: the rewound deposit re-executes at its original height
    // (the reorg height equals the round it was made in), so it lands again.
    let mut f = hedged_fixture();
    f.world.set_finality(f.addr.chain, FinalityParams { depth: 1, delta: 0 });
    f.world.advance_delta(); // height 1 = premium deadline − 1
    f.world.call(ALICE, f.addr, &HedgedEscrowMsg::DepositPremium).unwrap();
    f.world.schedule_reorg(ReorgEvent {
        chain: f.addr.chain,
        at_round: f.world.rounds_elapsed(),
        depth: 1,
        policy: ReorgPolicy::Redeliver,
    });
    f.world.advance_delta();
    assert_eq!(hedged(&f).premium_state(), HedgedPremiumState::Held);
    let stats = f.world.chain(f.addr.chain).reorg_stats();
    assert_eq!((stats.redelivered_calls, stats.redelivery_failures), (1, 0));

    // Depth 2: the reorg strikes one round later, so the same last-tick
    // deposit re-executes at exactly the premium deadline and is rejected —
    // the loss is counted, and the rewind leaves Alice's funds intact.
    let mut f = hedged_fixture();
    let native = f.world.chain(f.addr.chain).native_asset();
    f.world.set_finality(f.addr.chain, FinalityParams { depth: 2, delta: 0 });
    f.world.advance_delta(); // height 1
    f.world.call(ALICE, f.addr, &HedgedEscrowMsg::DepositPremium).unwrap();
    f.world.advance_delta(); // height 2 = the premium deadline
    f.world.schedule_reorg(ReorgEvent {
        chain: f.addr.chain,
        at_round: f.world.rounds_elapsed(),
        depth: 2,
        policy: ReorgPolicy::Redeliver,
    });
    f.world.advance_delta();
    assert_eq!(hedged(&f).premium_state(), HedgedPremiumState::NotDeposited);
    let stats = f.world.chain(f.addr.chain).reorg_stats();
    assert_eq!((stats.redelivered_calls, stats.redelivery_failures), (0, 1));
    let ledger = f.world.chain(f.addr.chain).ledger();
    assert_eq!(
        ledger.balance(AccountRef::Party(ALICE), native),
        Amount::new(10),
        "the rewound deposit must return to Alice, not strand in the contract"
    );
}

#[test]
fn auction_bid_survives_a_half_delta_outage_but_settle_recovers_a_crossing_one() {
    let mut f = auction_fixture();
    f.world.call(ALICE, f.coin_addr, &AuctionCoinMsg::DepositPremium).unwrap();
    f.world.call(ALICE, f.ticket_addr, &AuctionTicketMsg::EscrowTickets).unwrap();
    f.world.advance_blocks(BID_DEADLINE.height() - 1 - HALF_DELTA);
    f.world.advance_blocks(HALF_DELTA);
    f.world.call(BOB, f.coin_addr, &AuctionCoinMsg::PlaceBid { amount: Amount::new(6) }).unwrap();

    // A Δ-long outage crosses the bid deadline: the bid is rejected, no
    // bidder wins, and both chains' settles recover the endowment and
    // tickets at the challenge deadline.
    let mut f = auction_fixture();
    f.world.call(ALICE, f.coin_addr, &AuctionCoinMsg::DepositPremium).unwrap();
    f.world.call(ALICE, f.ticket_addr, &AuctionTicketMsg::EscrowTickets).unwrap();
    f.world.advance_blocks(BID_DEADLINE.height() - FULL_DELTA);
    f.world.advance_blocks(FULL_DELTA);
    assert!(f
        .world
        .call(BOB, f.coin_addr, &AuctionCoinMsg::PlaceBid { amount: Amount::new(6) })
        .is_err());
    f.world.advance_blocks(CHALLENGE_DEADLINE.height() - BID_DEADLINE.height());
    f.world.call(BOB, f.coin_addr, &AuctionCoinMsg::Settle).unwrap();
    f.world.call(BOB, f.ticket_addr, &AuctionTicketMsg::Settle).unwrap();
}
