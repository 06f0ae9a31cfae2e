//! Chain shards: worker-owned worlds plus batched cross-shard delivery.
//!
//! A [`Shard`] owns one [`chainsim::World`] with a single chain, the home
//! deals scheduled on it, and two message queues. During a round a shard
//! executes entirely on its own state: it drains the inbox (messages other
//! shards emitted last round), spawns and steps its home deals, and pushes
//! every cross-shard action into its outbox. The driver then merges all
//! outboxes into inboxes in shard-id order at the round boundary — a batched
//! delivery that both preserves Δ-synchrony (an emission in round `r`
//! executes remotely at height `(r + 1)·Δ`, i.e. within one Δ) and makes the
//! whole run deterministic by construction: no shard ever observes another
//! shard mid-round, so the worker count cannot change any interleaving a
//! contract can see.

use std::collections::BTreeMap;

use chainsim::{
    Amount, AssetId, Blockchain, ChainId, Contract, ContractAddr, FinalityParams, PartyId,
    ReorgEvent, ReorgPolicy, ReorgStats, World,
};
use contracts::{AuctionCoinContract, AuctionCoinMsg, AuctionTicketMsg, HedgedEscrowMsg, HtlcMsg};

use super::deals::Deal;
use super::MarketConfig;

/// Every shard world registers its assets in the same order, so the ids are
/// constants across shards: the chain's auto-registered native currency…
pub const NATIVE_ASSET: AssetId = AssetId(0);
/// …and the shard token that principals are denominated in.
pub const TOKEN_ASSET: AssetId = AssetId(1);

/// How many call failures a shard records verbatim before only counting.
const MAX_RECORDED_FAILURES: usize = 8;

/// A typed contract call routed through the market engine.
///
/// Calls address contracts by `(deal, leg)` instead of by [`ContractAddr`]:
/// the publishing shard assigns the concrete address when the `Publish`
/// message executes, so planned actions can be built before any contract
/// exists.
#[derive(Clone, Debug)]
pub enum MarketCall {
    /// A call on a §5.2 hedged escrow leg.
    Hedged(HedgedEscrowMsg),
    /// A call on a plain HTLC leg (cycles and brokered sales).
    Htlc(HtlcMsg),
    /// A call on the auction's coin-chain contract.
    Coin(AuctionCoinMsg),
    /// A call on the auction's ticket-chain contract.
    Ticket(AuctionTicketMsg),
}

/// One unit of work a shard executes on its own chain.
#[derive(Debug)]
pub enum MarketMsg {
    /// Publish a deal leg's contract and record its address.
    Publish {
        /// The deal the leg belongs to.
        deal: u32,
        /// The leg index within the deal.
        leg: u8,
        /// The contract instance to publish.
        contract: Box<dyn Contract>,
    },
    /// Call a previously published leg.
    Call {
        /// The deal the leg belongs to.
        deal: u32,
        /// The leg index within the deal.
        leg: u8,
        /// The calling party.
        caller: PartyId,
        /// The typed message.
        call: MarketCall,
    },
}

/// An outbound message queued for delivery to another shard (or back to the
/// emitting shard — self-targeted envelopes still wait for the round
/// boundary, which is what gives every remote action its uniform one-round
/// delivery latency).
#[derive(Debug)]
pub struct Envelope {
    /// The destination shard.
    pub target: u32,
    /// The message to execute there next round.
    pub msg: MarketMsg,
}

/// One chain shard: a private world, the home deals scheduled on it, and the
/// batched message queues.
#[derive(Debug)]
pub struct Shard {
    id: u32,
    world: World,
    chain: ChainId,
    deals: Vec<Deal>,
    spawned: usize,
    live_lo: usize,
    leg_addrs: BTreeMap<(u32, u8), ContractAddr>,
    inbox: Vec<MarketMsg>,
    outbox: Vec<Envelope>,
    calls: u64,
    failed_calls: u64,
    failures: Vec<String>,
    minted_per_asset: u128,
    reorg_seed: u64,
    reorg_interval: u32,
    reorg_depth: u32,
}

impl Shard {
    /// Builds shard `id`: one chain, the shared token, and every pooled
    /// account endowed with both assets. `contract_estimate` pre-allocates
    /// ledger rows for the contracts the run is expected to publish.
    pub fn new(id: u32, cfg: &MarketConfig, contract_estimate: usize) -> Self {
        let mut world = World::new(cfg.delta_blocks);
        let chain = world.add_chain(format!("shard-{id}"));
        let native = world.chain(chain).native_asset();
        let token = world.register_asset("shard-token");
        assert_eq!(native, NATIVE_ASSET, "native asset must be the first registered");
        assert_eq!(token, TOKEN_ASSET, "shard token must be the second registered");

        let accounts = cfg.accounts as usize;
        let endowment = Amount::new(cfg.endowment);
        let chain_mut = world.chain_mut(chain);
        chain_mut.ledger_mut().reserve(accounts, contract_estimate, 2);
        for p in 0..cfg.accounts {
            chain_mut.mint(PartyId(p), TOKEN_ASSET, endowment);
            chain_mut.mint(PartyId(p), NATIVE_ASSET, endowment);
        }
        if cfg.reorg_depth > 0 {
            // `delta: 0` inherits the world Δ, so confirmation lag scales
            // with the run's synchrony bound.
            world.set_finality(chain, FinalityParams { depth: cfg.reorg_depth, delta: 0 });
        }

        Shard {
            id,
            world,
            chain,
            deals: Vec::new(),
            spawned: 0,
            live_lo: 0,
            leg_addrs: BTreeMap::new(),
            inbox: Vec::new(),
            outbox: Vec::new(),
            calls: 0,
            failed_calls: 0,
            failures: Vec::new(),
            minted_per_asset: u128::from(cfg.accounts) * cfg.endowment,
            reorg_seed: cfg.seed,
            reorg_interval: cfg.reorg_interval,
            reorg_depth: cfg.reorg_depth,
        }
    }

    /// Assigns this shard's home deals (must be sorted by `start_round`).
    pub fn assign_deals(&mut self, deals: Vec<Deal>) {
        debug_assert!(deals.windows(2).all(|w| w[0].start_round <= w[1].start_round));
        self.deals = deals;
    }

    /// This shard's id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The shard's chain state (ledger, contracts, gas meter).
    pub fn chain(&self) -> &Blockchain {
        self.world.chain(self.chain)
    }

    /// Mutable chain state, for tests that edit the ledger directly.
    #[cfg(test)]
    pub(super) fn chain_mut(&mut self) -> &mut Blockchain {
        self.world.chain_mut(self.chain)
    }

    /// The home deals scheduled on this shard.
    pub fn deals(&self) -> &[Deal] {
        &self.deals
    }

    /// The address a deal leg was published at on this shard, if it has been.
    pub fn leg_addr(&self, deal: u32, leg: u8) -> Option<ContractAddr> {
        self.leg_addrs.get(&(deal, leg)).copied()
    }

    /// Total contract calls executed on this shard.
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// Calls that returned an error (a correct run has none).
    pub fn failed_calls(&self) -> u64 {
        self.failed_calls
    }

    /// The first few recorded failure descriptions.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// Units minted per asset during setup (the conservation baseline).
    pub fn minted_per_asset(&self) -> u128 {
        self.minted_per_asset
    }

    /// Takes the round's outbound batch (driver barrier only).
    pub fn take_outbox(&mut self) -> Vec<Envelope> {
        std::mem::take(&mut self.outbox)
    }

    /// Enqueues a message delivered at the last round boundary.
    pub fn push_inbox(&mut self, msg: MarketMsg) {
        self.inbox.push(msg);
    }

    /// Executes one driver round on this shard: drain the inbox, spawn home
    /// deals starting now, step live deals, then advance the chain by Δ.
    pub fn run_round(&mut self, round: u32) {
        for msg in std::mem::take(&mut self.inbox) {
            self.apply(msg);
        }

        while self.spawned < self.deals.len() && self.deals[self.spawned].start_round <= round {
            self.spawned += 1;
        }

        // Split borrow: the deal list is taken out of `self` while stepping
        // so actions can execute against the shard's world.
        let mut deals = std::mem::take(&mut self.deals);
        for deal in &mut deals[self.live_lo..self.spawned] {
            let offset = round - deal.start_round;
            self.step_deal(deal, offset);
        }
        while self.live_lo < self.spawned && deals[self.live_lo].is_done() {
            self.live_lo += 1;
        }
        self.deals = deals;

        if self.reorg_due(round) {
            // Fires inside `advance_delta` at this round's close: the chain
            // rewinds its speculative window and re-delivers the rewound
            // calls in order. The decision is a pure function of
            // `(seed, shard, round)`, so injection cannot depend on the
            // worker count.
            self.world.schedule_reorg(ReorgEvent {
                chain: self.chain,
                at_round: self.world.rounds_elapsed(),
                depth: self.reorg_depth,
                policy: ReorgPolicy::Redeliver,
            });
        }
        self.world.advance_delta();
    }

    /// Whether the seed-pinned injector fires a reorg on this shard this
    /// round. Round 0 is exempt so endowment setup is never rewound into a
    /// half-open window.
    fn reorg_due(&self, round: u32) -> bool {
        if self.reorg_interval == 0 || round == 0 {
            return false;
        }
        let stream = self.reorg_seed ^ (u64::from(self.id) << 32) ^ u64::from(round);
        super::SplitMix64::new(stream).below(u64::from(self.reorg_interval)) == 0
    }

    /// Reorg counters of this shard's chain (all zero when injection is off).
    pub fn reorg_stats(&self) -> ReorgStats {
        self.chain().reorg_stats()
    }

    fn step_deal(&mut self, deal: &mut Deal, offset: u32) {
        while let Some(action) = deal.take_action_due(offset) {
            if action.target == self.id {
                self.apply(action.msg);
            } else {
                self.outbox.push(Envelope { target: action.target, msg: action.msg });
            }
        }
        if let Some(declare) = deal.take_declare_due(offset) {
            self.run_declare(deal.id, declare);
        }
    }

    /// The auction's dynamic step: read the winning bid off this shard's
    /// coin contract and submit the matching hashkey on both chains.
    fn run_declare(&mut self, deal: u32, declare: super::deals::AuctionDeclare) {
        let Some(coin_addr) = self.leg_addr(deal, declare.coin_leg) else {
            self.record_failure(format!("deal {deal}: declare before coin contract published"));
            return;
        };
        let high = self
            .world
            .chain(self.chain)
            .contract_as::<AuctionCoinContract>(coin_addr.contract)
            .and_then(|c| c.high_bidder());
        let Some((winner, _)) = high else {
            self.record_failure(format!("deal {deal}: auction has no bids to declare on"));
            return;
        };
        let Some((_, secret)) = declare.secrets.iter().find(|(p, _)| *p == winner).cloned() else {
            self.record_failure(format!("deal {deal}: no secret for declared winner {winner}"));
            return;
        };
        self.apply(MarketMsg::Call {
            deal,
            leg: declare.coin_leg,
            caller: declare.caller,
            call: MarketCall::Coin(AuctionCoinMsg::SubmitHashkey {
                winner,
                secret: secret.clone(),
            }),
        });
        self.outbox.push(Envelope {
            target: declare.ticket_shard,
            msg: MarketMsg::Call {
                deal,
                leg: declare.ticket_leg,
                caller: declare.caller,
                call: MarketCall::Ticket(AuctionTicketMsg::SubmitHashkey { winner, secret }),
            },
        });
    }

    fn apply(&mut self, msg: MarketMsg) {
        match msg {
            MarketMsg::Publish { deal, leg, contract } => {
                let id = self.world.chain_mut(self.chain).publish(contract);
                let replaced =
                    self.leg_addrs.insert((deal, leg), ContractAddr::new(self.chain, id));
                debug_assert!(replaced.is_none(), "deal {deal} leg {leg} published twice");
            }
            MarketMsg::Call { deal, leg, caller, call } => {
                let Some(addr) = self.leg_addr(deal, leg) else {
                    self.record_failure(format!("deal {deal} leg {leg}: call before publish"));
                    return;
                };
                self.calls += 1;
                let result = match &call {
                    MarketCall::Hedged(m) => self.world.call(caller, addr, m),
                    MarketCall::Htlc(m) => self.world.call(caller, addr, m),
                    MarketCall::Coin(m) => self.world.call(caller, addr, m),
                    MarketCall::Ticket(m) => self.world.call(caller, addr, m),
                };
                if let Err(err) = result {
                    self.record_failure(format!("deal {deal} leg {leg}: {err}"));
                }
            }
        }
    }

    fn record_failure(&mut self, detail: String) {
        self.failed_calls += 1;
        if self.failures.len() < MAX_RECORDED_FAILURES {
            self.failures.push(detail);
        }
    }
}
