//! Seed-pinned raw-call fuzzing of every contract family.
//!
//! Each iteration builds a fresh world, publishes one contract family with
//! randomly drawn deadlines, then fires a random interleaving of *legal and
//! illegal* calls at it — wrong callers, wrong secrets, out-of-order and
//! out-of-window messages — with random clock advances and, when the chain
//! carries a finality window, random redelivering/censoring reorgs. The
//! driver never inspects call results: rejected calls are the point.
//!
//! What must survive any such sequence:
//!
//! * **conservation** — the total supply of every asset never changes (the
//!   test profile's debug assertions additionally enforce per-call
//!   atomicity inside `chainsim`: a failed call that leaves residue panics
//!   at the call site);
//! * **no stranded funds** — after the final deadline has passed and every
//!   party has run the settle/refund paths, the contract account holds
//!   nothing;
//! * **exact rewinds** — a call-dropping reorg leaves its chain exactly as
//!   the `World::snapshot` taken at the start of the oldest rewound round
//!   (balances, contract states, gas): the finality window's round journal
//!   agrees with the snapshot path that every `Prefix` restores its
//!   post-setup snapshot through;
//! * **determinism** — the whole suite is a pure function of `FUZZ_SEED`,
//!   so any failure reproduces from the printed iteration seed alone.
//!
//! `FUZZ_ITERS` overrides the per-family iteration count (default 300; CI
//! runs `FUZZ_ITERS=1000` from the same pinned seed).

use std::rc::Rc;
use std::sync::Arc;

use chainsim::{
    AccountRef, Amount, AssetId, ChainId, ContractAddr, FinalityParams, PartyId, ReorgEvent,
    ReorgPolicy, Time, World, WorldSnapshot,
};
use contracts::{
    ArcDeadlines, ArcEscrow, ArcEscrowMsg, ArcEscrowParams, AuctionCoinContract, AuctionCoinMsg,
    AuctionParams, AuctionTicketContract, AuctionTicketMsg, Hashkey, HashkeyVerifyCache,
    HedgedEscrow, HedgedEscrowMsg, HedgedEscrowParams, HtlcEscrow, HtlcMsg, PartyKeys,
};
use cryptosim::{KeyPair, Secret};
use swapgraph::premiums::RedemptionPremiumEvaluator;
use swapgraph::Digraph;

/// The pinned seed of the committed fuzz budget.
const FUZZ_SEED: u64 = 0xF0_2217_5EED;

/// Per-family iterations; `FUZZ_ITERS` overrides.
fn iterations() -> u64 {
    std::env::var("FUZZ_ITERS").ok().and_then(|v| v.parse().ok()).unwrap_or(300)
}

/// SplitMix64 — the same dependency-free generator the sampled tier and the
/// market engine pin their streams with.
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    fn chance(&mut self, one_in: u64) -> bool {
        self.below(one_in) == 0
    }
}

const P0: PartyId = PartyId(0);
const P1: PartyId = PartyId(1);
const P2: PartyId = PartyId(2);
const PARTIES: [PartyId; 3] = [P0, P1, P2];

fn any_party(rng: &mut SplitMix64) -> PartyId {
    PARTIES[rng.below(3) as usize]
}

/// A secret that is the real preimage about half the time.
fn maybe_secret(real: &Secret, rng: &mut SplitMix64) -> Secret {
    if rng.chance(2) {
        real.clone()
    } else {
        Secret::from_seed(rng.next_u64())
    }
}

/// A chain's observable state minus its height and reorg counters: what a
/// call-dropping reorg must restore exactly.
#[derive(Debug, PartialEq)]
struct ChainState {
    balances: Vec<(AccountRef, AssetId, Amount)>,
    contracts: Vec<String>,
    gas_total: u64,
}

fn chain_state(world: &World, chain: ChainId) -> ChainState {
    let chain = world.chain(chain);
    ChainState {
        balances: chain.ledger().iter().collect(),
        contracts: chain.contracts().map(|contract| format!("{contract:?}")).collect(),
        gas_total: chain.gas_total(),
    }
}

/// The differential rewind oracle: a `World::snapshot` from the start of
/// every round still inside each chain's finality window, oldest first, so
/// the lists mirror the chains' own windows (a reorg reshapes only its
/// chain's).
struct RoundStarts {
    seed: u64,
    depth: usize,
    chains: Vec<ChainId>,
    starts: Vec<Vec<Rc<WorldSnapshot>>>,
}

impl RoundStarts {
    /// Opens the mirror where the windows open: right after `set_finality`.
    fn new(world: &World, chains: &[ChainId], depth: u32, seed: u64) -> Self {
        let open = Rc::new(world.snapshot());
        RoundStarts {
            seed,
            depth: depth as usize,
            chains: chains.to_vec(),
            starts: chains.iter().map(|_| vec![Rc::clone(&open)]).collect(),
        }
    }

    /// Follows one `advance_delta` that fired `reorg`, if any. A
    /// call-dropping reorg re-delivers nothing (every publish predates the
    /// window), so its chain must match the snapshot from the start of the
    /// oldest rewound round.
    fn round_ended(&mut self, world: &World, reorg: Option<ReorgEvent>) {
        if self.depth == 0 {
            return;
        }
        if let Some(event) = reorg {
            let index = self.chains.iter().position(|chain| *chain == event.chain).unwrap();
            let starts = &mut self.starts[index];
            let kept = starts.len() - (event.depth as usize).min(starts.len());
            let oldest = Rc::clone(&starts[kept]);
            if event.policy == ReorgPolicy::DropCalls {
                let mut expected = World::new(1);
                expected.restore(&oldest);
                assert_eq!(
                    chain_state(world, event.chain),
                    chain_state(&expected, event.chain),
                    "seed {:#x}: a call-dropping reorg of depth {} must rewind {:?} to the \
                     start of its oldest rewound round",
                    self.seed,
                    event.depth,
                    event.chain
                );
            }
            // The reorg reopens the current round on the rewound state.
            starts.truncate(kept);
            starts.push(oldest);
        }
        let start = Rc::new(world.snapshot());
        for starts in &mut self.starts {
            starts.push(Rc::clone(&start));
            if starts.len() > self.depth {
                starts.remove(0);
            }
        }
    }
}

/// Ends a round; when the chain keeps a finality window, sometimes strikes
/// it with a reorg first (random depth within the window, random policy),
/// and checks the rewind against `starts`.
fn advance_round(
    world: &mut World,
    chains: &[ChainId],
    depth: u32,
    rng: &mut SplitMix64,
    starts: &mut RoundStarts,
) {
    let mut reorg = None;
    if depth > 0 && rng.chance(4) {
        let policy = if rng.chance(2) { ReorgPolicy::Redeliver } else { ReorgPolicy::DropCalls };
        let event = ReorgEvent {
            chain: chains[rng.below(chains.len() as u64) as usize],
            at_round: world.rounds_elapsed(),
            depth: 1 + rng.below(u64::from(depth)) as u32,
            policy,
        };
        world.schedule_reorg(event);
        reorg = Some(event);
    }
    world.advance_delta();
    starts.round_ended(world, reorg);
}

/// Rounds (reorg-free) until every chain is past `deadline` by a margin.
fn advance_past(world: &mut World, deadline: Time, delta: u64) {
    while world.now() < deadline.plus(2 * delta) {
        world.advance_delta();
    }
}

/// Conservation: every asset's total supply equals what setup minted.
fn assert_conserved(world: &World, chain: ChainId, minted: &[(AssetId, u128)], seed: u64) {
    let ledger = world.chain(chain).ledger();
    for (asset, total) in minted {
        assert_eq!(
            ledger.total_supply(*asset),
            Amount::new(*total),
            "seed {seed:#x}: asset {asset:?} supply drifted on {:?}",
            chain
        );
    }
}

/// No stranded funds: the drained contract account holds nothing.
fn assert_no_residue(world: &World, addr: ContractAddr, assets: &[AssetId], seed: u64) {
    let ledger = world.chain(addr.chain).ledger();
    for asset in assets {
        assert_eq!(
            ledger.balance(AccountRef::Contract(addr.contract), *asset),
            Amount::ZERO,
            "seed {seed:#x}: contract {addr:?} stranded {asset:?} after drain"
        );
    }
}

// ---------------------------------------------------------------------------
// HTLC (§5.1)
// ---------------------------------------------------------------------------

fn fuzz_htlc_once(seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let delta = 1 + rng.below(3);
    let mut world = World::new(delta);
    let chain = world.add_chain("fuzz");
    let token = world.register_asset("token");
    for p in PARTIES {
        world.chain_mut(chain).mint(p, token, Amount::new(1_000));
    }
    let timelock = Time(4 + rng.below(12));
    let secret = Secret::from_seed(rng.next_u64());
    let amount = Amount::new(1 + rng.below(900) as u128);
    let escrow = HtlcEscrow::new(P0, P1, token, amount, secret.hashlock(), timelock);
    let addr = world.publish(chain, Box::new(escrow));
    let depth = rng.below(3) as u32;
    if depth > 0 {
        world.set_finality(chain, FinalityParams { depth, delta: 0 });
    }
    let mut starts = RoundStarts::new(&world, &[chain], depth, seed);

    for _ in 0..8 + rng.below(17) {
        let caller = any_party(&mut rng);
        match rng.below(5) {
            0 => advance_round(&mut world, &[chain], depth, &mut rng, &mut starts),
            1 => drop(world.call(caller, addr, &HtlcMsg::Escrow)),
            2 => {
                let secret = maybe_secret(&secret, &mut rng);
                drop(world.call(caller, addr, &HtlcMsg::Redeem { secret }));
            }
            _ => drop(world.call(caller, addr, &HtlcMsg::Refund)),
        }
    }

    advance_past(&mut world, timelock, delta);
    for p in PARTIES {
        let _ = world.call(p, addr, &HtlcMsg::Redeem { secret: secret.clone() });
        let _ = world.call(p, addr, &HtlcMsg::Refund);
    }
    world.advance_delta();

    assert_conserved(&world, chain, &[(token, 3_000)], seed);
    assert_no_residue(&world, addr, &[token], seed);
}

// ---------------------------------------------------------------------------
// Hedged escrow (§5.2)
// ---------------------------------------------------------------------------

fn fuzz_hedged_once(seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let delta = 1 + rng.below(3);
    let mut world = World::new(delta);
    let chain = world.add_chain("fuzz");
    let native = world.chain(chain).native_asset();
    let token = world.register_asset("token");
    for p in PARTIES {
        world.chain_mut(chain).mint(p, token, Amount::new(1_000));
        world.chain_mut(chain).mint(p, native, Amount::new(100));
    }
    let premium_deadline = Time(2 + rng.below(4));
    let escrow_deadline = premium_deadline.plus(1 + rng.below(6));
    let redeem_deadline = escrow_deadline.plus(1 + rng.below(6));
    let secret = Secret::from_seed(rng.next_u64());
    let escrow = HedgedEscrow::new(HedgedEscrowParams {
        escrower: P1,
        redeemer: P0,
        principal_asset: token,
        principal_amount: Amount::new(1 + rng.below(900) as u128),
        premium_asset: native,
        premium_amount: Amount::new(1 + rng.below(20) as u128),
        hashlock: secret.hashlock(),
        premium_deadline,
        escrow_deadline,
        redeem_deadline,
    });
    let addr = world.publish(chain, Box::new(escrow));
    let depth = rng.below(3) as u32;
    if depth > 0 {
        world.set_finality(chain, FinalityParams { depth, delta: 0 });
    }
    let mut starts = RoundStarts::new(&world, &[chain], depth, seed);

    for _ in 0..8 + rng.below(17) {
        let caller = any_party(&mut rng);
        match rng.below(6) {
            0 => advance_round(&mut world, &[chain], depth, &mut rng, &mut starts),
            1 => drop(world.call(caller, addr, &HedgedEscrowMsg::DepositPremium)),
            2 => drop(world.call(caller, addr, &HedgedEscrowMsg::EscrowPrincipal)),
            3 => {
                let secret = maybe_secret(&secret, &mut rng);
                drop(world.call(caller, addr, &HedgedEscrowMsg::Redeem { secret }));
            }
            _ => drop(world.call(caller, addr, &HedgedEscrowMsg::Settle)),
        }
    }

    advance_past(&mut world, redeem_deadline, delta);
    for p in PARTIES {
        let _ = world.call(p, addr, &HedgedEscrowMsg::Settle);
    }
    world.advance_delta();

    assert_conserved(&world, chain, &[(token, 3_000), (native, 300)], seed);
    assert_no_residue(&world, addr, &[token, native], seed);
}

// ---------------------------------------------------------------------------
// Arc escrow (§7/§8): the two-party cycle arc of the deadline-edge fixture,
// with fuzzed paths, leaders and hashkey signatures.
// ---------------------------------------------------------------------------

fn fuzz_arc_once(seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let delta = 2u64;
    let mut world = World::new(delta);
    let chain = world.add_chain("fuzz");
    let native = world.chain(chain).native_asset();
    let token = world.register_asset("token");
    for p in PARTIES {
        world.chain_mut(chain).mint(p, token, Amount::new(100));
        world.chain_mut(chain).mint(p, native, Amount::new(100));
    }
    let mut keys = PartyKeys::new();
    let mut pairs = Vec::new();
    for i in 0..2u32 {
        let pair = KeyPair::from_seed(seed ^ u64::from(i));
        world.directory_mut().register(&pair);
        keys.insert(PartyId(i), pair.public());
        pairs.push(pair);
    }
    let mut digraph = Digraph::new();
    digraph.add_arc(0, 1);
    digraph.add_arc(1, 0);
    let secret = Secret::from_seed(rng.next_u64());
    let stretch = 1 + rng.below(2);
    let final_deadline = Time(20 * stretch);
    let escrow = ArcEscrow::new(ArcEscrowParams {
        sender: P1,
        receiver: P0,
        asset: token,
        amount: Amount::new(50),
        premium_asset: native,
        base_premium: Amount::new(1),
        escrow_premium: Amount::new(5),
        verify_cache: HashkeyVerifyCache::for_deal(&digraph, &keys),
        premium_evaluator: Arc::new(RedemptionPremiumEvaluator::new(&digraph)),
        hashlocks: Arc::new(vec![(P0, secret.hashlock())]),
        digraph: Arc::new(digraph),
        keys: Arc::new(keys),
        deadlines: ArcDeadlines {
            escrow_premium_deadline: Time(4 * stretch),
            redemption_premium_deadline: Time(8 * stretch),
            asset_escrow_deadline: Time(12 * stretch),
            hashkey_timeout_base: Time(12 * stretch),
            delta_blocks: delta,
            final_deadline,
        },
    });
    let addr = world.publish(chain, Box::new(escrow));
    let depth = rng.below(3) as u32;
    if depth > 0 {
        world.set_finality(chain, FinalityParams { depth, delta: 0 });
    }
    let mut starts = RoundStarts::new(&world, &[chain], depth, seed);

    for _ in 0..10 + rng.below(21) {
        let caller = any_party(&mut rng);
        match rng.below(6) {
            0 => advance_round(&mut world, &[chain], depth, &mut rng, &mut starts),
            1 => drop(world.call(caller, addr, &ArcEscrowMsg::DepositEscrowPremium)),
            2 => {
                // Legal (receiver's own length-1 path) and illegal (no such
                // hashlock / not a receiver-to-leader path) variants.
                let (leader, path) = match rng.below(3) {
                    0 => (P0, vec![P0]),
                    1 => (P1, vec![P0, P1]),
                    _ => (P0, vec![P1]),
                };
                let msg = ArcEscrowMsg::DepositRedemptionPremium { leader, path };
                drop(world.call(caller, addr, &msg));
            }
            3 => drop(world.call(caller, addr, &ArcEscrowMsg::EscrowAsset)),
            4 => {
                // Real leader/signer half the time; wrong secret or wrong
                // signing key otherwise (an invalid signature path).
                let secret = maybe_secret(&secret, &mut rng);
                let pair = &pairs[rng.below(2) as usize];
                let hashkey = Hashkey::from_leader(P0, secret, pair);
                drop(world.call(caller, addr, &ArcEscrowMsg::PresentHashkey { hashkey }));
            }
            _ => drop(world.call(caller, addr, &ArcEscrowMsg::Settle)),
        }
    }

    advance_past(&mut world, final_deadline, delta);
    for p in PARTIES {
        let _ = world.call(p, addr, &ArcEscrowMsg::Settle);
    }
    world.advance_delta();

    assert_conserved(&world, chain, &[(token, 300), (native, 300)], seed);
    assert_no_residue(&world, addr, &[token, native], seed);
}

// ---------------------------------------------------------------------------
// Auction (§9): both halves on separate chains, cross-chain hashkeys fuzzed
// independently per chain.
// ---------------------------------------------------------------------------

fn fuzz_auction_once(seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let delta = 1 + rng.below(3);
    let mut world = World::new(delta);
    let coin_chain = world.add_chain("coin");
    let ticket_chain = world.add_chain("ticket");
    let coin = world.register_asset("coin");
    let ticket = world.register_asset("ticket");
    for p in PARTIES {
        world.chain_mut(coin_chain).mint(p, coin, Amount::new(100));
    }
    world.chain_mut(ticket_chain).mint(P0, ticket, Amount::new(1));
    let secrets: Vec<Secret> = (0..2).map(|_| Secret::from_seed(rng.next_u64())).collect();
    let bid_deadline = Time(3 + rng.below(5));
    let challenge_deadline = bid_deadline.plus(4 + rng.below(8));
    let params = AuctionParams {
        auctioneer: P0,
        bidders: vec![P1, P2],
        coin_asset: coin,
        ticket_asset: ticket,
        ticket_amount: Amount::new(1),
        premium_per_bidder: Amount::new(2),
        hashlocks: vec![(P1, secrets[0].hashlock()), (P2, secrets[1].hashlock())],
        bid_deadline,
        challenge_deadline,
    };
    let coin_addr = world.publish(coin_chain, Box::new(AuctionCoinContract::new(params.clone())));
    let ticket_addr = world.publish(ticket_chain, Box::new(AuctionTicketContract::new(params)));
    let chains = [coin_chain, ticket_chain];
    let depth = rng.below(3) as u32;
    if depth > 0 {
        for chain in chains {
            world.set_finality(chain, FinalityParams { depth, delta: 0 });
        }
    }
    let mut starts = RoundStarts::new(&world, &chains, depth, seed);

    for _ in 0..10 + rng.below(21) {
        let caller = any_party(&mut rng);
        let bidder = PARTIES[1 + rng.below(2) as usize];
        match rng.below(7) {
            0 => advance_round(&mut world, &chains, depth, &mut rng, &mut starts),
            1 => drop(world.call(caller, coin_addr, &AuctionCoinMsg::DepositPremium)),
            2 => {
                let amount = Amount::new(1 + rng.below(40) as u128);
                let msg = AuctionCoinMsg::PlaceBid { amount };
                drop(world.call(caller, coin_addr, &msg));
            }
            3 => {
                let secret = maybe_secret(&secrets[rng.below(2) as usize], &mut rng);
                let msg = AuctionCoinMsg::SubmitHashkey { winner: bidder, secret };
                drop(world.call(caller, coin_addr, &msg));
            }
            4 => drop(world.call(caller, ticket_addr, &AuctionTicketMsg::EscrowTickets)),
            5 => {
                let secret = maybe_secret(&secrets[rng.below(2) as usize], &mut rng);
                let msg = AuctionTicketMsg::SubmitHashkey { winner: bidder, secret };
                drop(world.call(caller, ticket_addr, &msg));
            }
            _ => {
                let _ = world.call(caller, coin_addr, &AuctionCoinMsg::Settle);
                let _ = world.call(caller, ticket_addr, &AuctionTicketMsg::Settle);
            }
        }
    }

    advance_past(&mut world, challenge_deadline, delta);
    for p in PARTIES {
        let _ = world.call(p, coin_addr, &AuctionCoinMsg::Settle);
        let _ = world.call(p, ticket_addr, &AuctionTicketMsg::Settle);
    }
    world.advance_delta();

    assert_conserved(&world, coin_chain, &[(coin, 300)], seed);
    assert_conserved(&world, ticket_chain, &[(ticket, 1)], seed);
    assert_no_residue(&world, coin_addr, &[coin], seed);
    assert_no_residue(&world, ticket_addr, &[ticket], seed);
}

// ---------------------------------------------------------------------------
// Drivers: one pinned seed stream per family.
// ---------------------------------------------------------------------------

fn run_family(tag: u64, f: impl Fn(u64)) {
    let mut stream = SplitMix64::new(FUZZ_SEED ^ tag);
    for _ in 0..iterations() {
        f(stream.next_u64());
    }
}

#[test]
fn fuzz_htlc_raw_calls() {
    run_family(0x48_54_4C_43, fuzz_htlc_once); // "HTLC"
}

#[test]
fn fuzz_hedged_raw_calls() {
    run_family(0x48_45_44_47, fuzz_hedged_once); // "HEDG"
}

#[test]
fn fuzz_arc_raw_calls() {
    run_family(0x41_52_43_5F, fuzz_arc_once); // "ARC_"
}

#[test]
fn fuzz_auction_raw_calls() {
    run_family(0x41_55_43_54, fuzz_auction_once); // "AUCT"
}
