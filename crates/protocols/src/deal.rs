//! A generic engine for hedged multi-arc deals.
//!
//! Both the multi-party swap of §7 and the brokered deal of §8 are
//! instances of the same structure: a strongly-connected digraph of asset
//! transfers, a leader set, per-arc escrow (or trading) premiums, per-arc
//! redemption premiums derived from Equation (1), and the four-phase
//! hedged execution (escrow premiums → redemption premiums → asset escrow →
//! hashkey release). This module drives [`contracts::ArcEscrow`] contracts
//! for an arbitrary such configuration; [`crate::multi_party`] and
//! [`crate::broker`] are thin wrappers that build the configuration.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

use chainsim::{Action, Amount, AssetId, ChainId, ContractAddr, PartyId, Tally, Time, World};
use contracts::{
    ArcDeadlines, ArcEscrow, ArcEscrowMsg, ArcEscrowParams, Hashkey, HashkeyVerifyCache, PartyKeys,
    PremiumSlotState, PrincipalState,
};
use cryptosim::{Digest, Hashlock, KeyPair, Secret};
use swapgraph::premiums::RedemptionPremiumEvaluator;
use swapgraph::Digraph;

use crate::outcome::{BalanceSnapshot, Payoffs};
use crate::script::{
    profile, Prefix, Profile, Protocol, ScriptedParty, Step, StepOutcome, Strategy,
};

/// The number of scripted steps in each deal-engine role: escrow premiums,
/// redemption premiums, asset escrow, hashkey release, settlement.
/// [`Strategy::stop_after`] points at or beyond this are equivalent to
/// compliance.
pub const SCRIPT_STEPS: usize = 5;

/// Every distinct per-party strategy of the deal engine: the full
/// `stop_after × timing × faults` product over the five-step script (see
/// [`Strategy::all`] for the dedup rules). Model-checking sweeps range over
/// exactly this space.
pub fn strategy_space() -> Vec<Strategy> {
    Strategy::all(SCRIPT_STEPS)
}

/// One asset transfer of the deal.
#[derive(Clone, Debug)]
pub struct ArcSpec {
    /// The sender.
    pub from: PartyId,
    /// The receiver.
    pub to: PartyId,
    /// The chain the asset (and its escrow contract) lives on, named by key
    /// into [`DealConfig::chains`].
    pub chain: String,
    /// The asset transferred.
    pub asset_name: String,
    /// The amount transferred.
    pub amount: Amount,
    /// The escrow (or trading) premium the sender owes on this arc.
    pub escrow_premium: Amount,
}

/// Configuration of a hedged deal.
#[derive(Clone, Debug)]
pub struct DealConfig {
    /// The transfer digraph (party ids as vertices).
    pub digraph: Digraph,
    /// The leader set (must be a feedback vertex set).
    pub leaders: BTreeSet<PartyId>,
    /// The chains involved, by name.
    pub chains: Vec<String>,
    /// The arcs of the deal.
    pub arcs: Vec<ArcSpec>,
    /// Parties that must wait for all incoming assets before escrowing their
    /// own outgoing assets (followers, and the broker in §8).
    pub wait_for_incoming: BTreeSet<PartyId>,
    /// The base premium `p`.
    pub base_premium: Amount,
    /// The synchrony bound Δ in blocks.
    pub delta_blocks: u64,
    /// Initial endowment of each party's traded assets, as
    /// `(party, chain, asset, amount)`; parties are also endowed with
    /// `premium_float` native currency on every chain for premiums.
    pub endowments: Vec<(PartyId, String, String, Amount)>,
    /// Native-currency float minted per party per chain to fund premiums.
    /// Size it with [`DealConfig::premium_float_for`]; it is computed once
    /// at configuration time because it walks every simple path of every
    /// leader, which would cost a clique-6 setup about 10 ms.
    pub premium_float: Amount,
}

impl DealConfig {
    /// Sizes the per-party, per-chain native-currency float for a deal over
    /// `digraph` with the given `leaders`, `arcs` and `base_premium`.
    ///
    /// The historical constant float of 10^6 base premiums covers the
    /// paper's hand-built examples, but escrow and redemption premiums grow
    /// exponentially with party count on dense generated digraphs (§7), so
    /// the float is also bounded below by the deal's actual premium
    /// structure: the materialised per-arc escrow premiums plus every
    /// Equation (1) redemption obligation of every leader.
    pub fn premium_float_for(
        digraph: &Digraph,
        leaders: &BTreeSet<PartyId>,
        arcs: &[ArcSpec],
        base_premium: Amount,
    ) -> Amount {
        let escrow_need: u128 = arcs.iter().map(|arc| arc.escrow_premium.value()).sum();
        let redemption_need: u128 = leaders
            .iter()
            .flat_map(|leader| {
                swapgraph::premiums::redemption_premium_table(
                    digraph,
                    leader.0,
                    base_premium.value(),
                )
            })
            .map(|entry| entry.amount)
            .sum();
        Amount::new(
            base_premium
                .scaled(1_000_000)
                .value()
                .max((escrow_need + redemption_need).saturating_mul(4)),
        )
    }
    /// All parties appearing in the digraph, in ascending order.
    pub fn parties(&self) -> Vec<PartyId> {
        self.digraph.vertices().map(PartyId).collect()
    }

    fn n(&self) -> u64 {
        self.digraph.vertex_count() as u64
    }

    /// The §7 phase deadlines this configuration publishes on every arc
    /// escrow: `ℓΔ`-staggered ladders anchored at `nΔ, 2nΔ, 3nΔ` with the
    /// final deadline at `(4n + diam + 1)·Δ`. Public so static schedule
    /// checks (the `staticcheck` crate) can verify the ladder against the
    /// digraph without building a deal.
    pub fn arc_deadlines(&self) -> ArcDeadlines {
        let d = self.delta_blocks;
        let n = self.n();
        let diam = self.digraph.diameter().unwrap_or(n);
        ArcDeadlines {
            escrow_premium_deadline: Time(n * d),
            redemption_premium_deadline: Time(2 * n * d),
            asset_escrow_deadline: Time(3 * n * d),
            hashkey_timeout_base: Time(3 * n * d),
            delta_blocks: d,
            final_deadline: Time((4 * n + diam + 1) * d),
        }
    }

    /// Each sender's staggered asset-escrow deadline under `deadlines`:
    /// `redemption_premium_deadline + (depth + 1)·Δ`, where `depth` is the
    /// sender's depth in the wait-for-incoming dependency DAG.
    ///
    /// The escrow phase chains through waiting parties — a follower escrows
    /// only after observing every incoming asset — so a single shared
    /// deadline had a deadline-edge hole: a sender escrowing at the last
    /// legal instant (a crash-recovered leader, say) left its dependents
    /// zero rounds to follow, and the dependents' forfeited escrow premiums
    /// flowed to the deviator. Staggering by dependency depth restores the
    /// §7 schedule: every hop — including a last-instant one — leaves the
    /// next a full Δ, and the deepest party's deadline is still at most the
    /// phase end `3nΔ`.
    fn asset_escrow_deadlines(&self, deadlines: &ArcDeadlines) -> BTreeMap<PartyId, Time> {
        self.escrow_depths()
            .into_iter()
            .map(|(party, depth)| {
                let staggered =
                    deadlines.redemption_premium_deadline.plus((depth + 1) * self.delta_blocks);
                (party, deadlines.asset_escrow_deadline.min(staggered))
            })
            .collect()
    }

    /// Each party's depth in the wait-for-incoming dependency DAG: parties
    /// that escrow unconditionally (leaders) are depth 0; a waiting party
    /// sits one level below the deepest sender it waits on. The leader set
    /// is a feedback vertex set, so the waiting sub-digraph is acyclic and
    /// the fixed point below converges within `n` sweeps; anything left
    /// unassigned (an invalid configuration) is capped at `n`.
    fn escrow_depths(&self) -> BTreeMap<PartyId, u64> {
        let parties = self.parties();
        let mut depths: BTreeMap<PartyId, u64> = parties
            .iter()
            .filter(|p| !self.wait_for_incoming.contains(p))
            .map(|&p| (p, 0))
            .collect();
        for _ in 0..parties.len() {
            let mut changed = false;
            for &v in parties.iter().filter(|p| self.wait_for_incoming.contains(p)) {
                if depths.contains_key(&v) {
                    continue;
                }
                let senders: Vec<PartyId> =
                    self.digraph.in_arcs(v.0).into_iter().map(|(u, _)| PartyId(u)).collect();
                if let Some(depth) =
                    senders.iter().map(|u| depths.get(u).copied()).collect::<Option<Vec<_>>>()
                {
                    depths.insert(v, 1 + depth.into_iter().max().unwrap_or(0));
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        for &p in &parties {
            depths.entry(p).or_insert(parties.len() as u64);
        }
        depths
    }
}

/// Outcome of a single party in a deal run.
#[derive(Clone, Debug, Default)]
pub struct DealPartyOutcome {
    /// Net native-currency (premium) payoff across every chain.
    pub premium_payoff: i128,
    /// Number of outgoing arcs on which this party escrowed an asset that
    /// was eventually refunded rather than redeemed.
    pub escrowed_unredeemed: usize,
    /// Number of outgoing arcs on which this party's asset was redeemed.
    pub escrowed_redeemed: usize,
    /// Number of outgoing arcs still holding this party's asset when the
    /// run ended: neither redeemed nor refunded. Always zero for a
    /// compliant party (its settle step frees every incident arc after the
    /// final deadline); nonzero means a principal was stranded.
    pub escrowed_stuck: usize,
    /// Number of incoming arcs on which this party received the asset.
    pub received: usize,
    /// Number of incoming arcs of this party.
    pub incoming_arcs: usize,
    /// How far above (or, negative, below) its compensation due the run
    /// left this party's premium payoff: one base premium `p` if any of its
    /// escrows was refunded unredeemed, else zero.
    pub hedge_margin: i128,
    /// Whether the hedged predicate holds for this party (always `true` for
    /// deviating parties, for which the predicate is vacuous): a compliant
    /// party whose swap fails — any escrow refunded unredeemed — nets at
    /// least one base premium `p` in total compensation, and never ends
    /// with a negative premium payoff otherwise (§7's theorem; see the
    /// README theorem notes for why the guarantee is total rather than
    /// per-arc). For a compliant party this is `hedge_margin >= 0`.
    pub hedged: bool,
    /// Whether the all-or-nothing safety condition holds for this party: if
    /// any of its escrows was redeemed, it received every incoming asset.
    pub safety: bool,
}

/// Outcome of a deal run.
#[derive(Clone, Debug)]
pub struct DealReport {
    /// The strategies used.
    pub strategies: BTreeMap<PartyId, Strategy>,
    /// Whether every arc's asset was redeemed.
    pub completed: bool,
    /// Per-party outcomes.
    pub parties: BTreeMap<PartyId, DealPartyOutcome>,
    /// Raw payoffs.
    pub payoffs: Payoffs,
    /// Rejected actions during the run.
    pub failed_actions: usize,
    /// Synchronous rounds executed.
    pub rounds: usize,
}

impl DealReport {
    /// Returns `true` if every compliant party is hedged and safe.
    pub fn all_compliant_hedged(&self) -> bool {
        self.parties.values().all(|p| p.hedged && p.safety)
    }
}

/// What a deal's setup leaves behind: the arc escrows, the parties' keys
/// and secrets, the deadlines the scripts act by, and the balances before
/// the first round.
///
/// Setup derives everything from the configuration it is given, so an
/// edited clone of a configuration runs on its own deadlines.
pub struct DealSetup {
    arc_addrs: Arc<BTreeMap<(PartyId, PartyId), ContractAddr>>,
    parties: Vec<PartyId>,
    native_assets: Vec<AssetId>,
    /// Traded assets first, then every chain's native asset.
    all_assets: Vec<AssetId>,
    secrets: BTreeMap<PartyId, Secret>,
    keypairs: BTreeMap<PartyId, KeyPair>,
    /// The phase deadlines of every arc escrow.
    deadlines: ArcDeadlines,
    /// Each sender's staggered asset-escrow deadline.
    escrow_deadlines: BTreeMap<PartyId, Time>,
    before: BalanceSnapshot,
}

impl fmt::Debug for DealSetup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DealSetup").field("arcs", &self.arc_addrs.len()).finish()
    }
}

/// Key pairs by seed, in the world's memo store.
#[derive(Default)]
struct SeededKeyPairs(BTreeMap<u64, KeyPair>);

/// Leaders' initial hashkeys by (signer, hashlock), in the world's memo
/// store. A party's key pair is a function of its id
/// ([`party_keypair`]) and a hashlock binds its secret, so the key
/// determines the signed hashkey.
#[derive(Default)]
struct LeaderHashkeys(BTreeMap<(PartyId, Hashlock), Hashkey>);

/// Hashkey extensions by (signer, chain tag of the base), in the world's
/// memo store. The chain tag binds the base's whole signature chain, path
/// and secret (see [`Hashkey::chain_tag`]), so the key determines the
/// extension.
#[derive(Default)]
struct ExtendedHashkeys(BTreeMap<(PartyId, Digest), Hashkey>);

/// `party`'s key pair, derived from a fixed per-party seed once per world.
fn party_keypair(world: &World, party: PartyId) -> KeyPair {
    let seed = 1000 + u64::from(party.0);
    let mut caches = world.caches();
    let pairs = &mut caches.get_or_default::<SeededKeyPairs>().0;
    pairs.entry(seed).or_insert_with(|| KeyPair::from_seed(seed)).clone()
}

fn leader_secret(leader: PartyId) -> Secret {
    Secret::from_seed(7000 + u64::from(leader.0))
}

/// `leader`'s initial hashkey over `secret`, signed once per world.
fn leader_hashkey(world: &World, leader: PartyId, secret: &Secret, keys: &KeyPair) -> Hashkey {
    let mut caches = world.caches();
    let signed = &mut caches.get_or_default::<LeaderHashkeys>().0;
    signed
        .entry((leader, secret.hashlock()))
        .or_insert_with(|| Hashkey::from_leader(leader, secret.clone(), keys))
        .clone()
}

/// `base` extended by `party`, signed once per world.
fn extended_hashkey(world: &World, base: &Hashkey, party: PartyId, keys: &KeyPair) -> Hashkey {
    let mut caches = world.caches();
    let signed = &mut caches.get_or_default::<ExtendedHashkeys>().0;
    signed.entry((party, base.chain_tag())).or_insert_with(|| base.extend(party, keys)).clone()
}

/// Builds the deal's world state inside `world`, which is reset first.
fn build(world: &mut World, config: &DealConfig) -> DealSetup {
    world.reset(1);
    // Setup tables borrow their keys from the config: a sweep re-runs the
    // same config thousands of times and must not re-clone its strings.
    let mut chain_ids: BTreeMap<&str, ChainId> = BTreeMap::new();
    for name in &config.chains {
        chain_ids.insert(name.as_str(), world.add_chain(name));
    }
    let mut asset_ids: BTreeMap<&str, AssetId> = BTreeMap::new();
    for arc in &config.arcs {
        if !asset_ids.contains_key(arc.asset_name.as_str()) {
            let id = world.register_asset(arc.asset_name.clone());
            asset_ids.insert(arc.asset_name.as_str(), id);
        }
    }
    let parties = config.parties();

    // Keys.
    let mut keys = PartyKeys::new();
    let mut keypairs = BTreeMap::new();
    for &party in &parties {
        let pair = party_keypair(world, party);
        world.directory_mut().register(&pair);
        keys.insert(party, pair.public());
        keypairs.insert(party, pair);
    }

    // Endowments: traded assets per the config, plus generous native
    // balances on every chain for premiums.
    for (party, chain, asset, amount) in &config.endowments {
        let chain_id = chain_ids[chain.as_str()];
        let asset_id = asset_ids[asset.as_str()];
        world.chain_mut(chain_id).mint(*party, asset_id, *amount);
    }
    let premium_float = config.premium_float;
    let native_assets: Vec<AssetId> = config
        .chains
        .iter()
        .map(|name| world.chain(chain_ids[name.as_str()]).native_asset())
        .collect();
    for &party in &parties {
        for name in &config.chains {
            let chain_id = chain_ids[name.as_str()];
            let native = world.chain(chain_id).native_asset();
            world.chain_mut(chain_id).mint(party, native, premium_float);
        }
    }

    // Leaders' secrets and the shared hashlock vector.
    let mut secrets = BTreeMap::new();
    let mut hashlocks = Vec::new();
    for &leader in &config.leaders {
        let secret = leader_secret(leader);
        hashlocks.push((leader, secret.hashlock()));
        secrets.insert(leader, secret);
    }
    let hashlocks = Arc::new(hashlocks);

    // One ArcEscrow per arc. All arcs share the digraph, the key table, the
    // Equation-(1) evaluator and the tag of the deal's verified hashkeys.
    let verify_cache = HashkeyVerifyCache::for_deal(&config.digraph, &keys);
    let premium_evaluator = Arc::new(RedemptionPremiumEvaluator::new(&config.digraph));
    let digraph = Arc::new(config.digraph.clone());
    let keys = Arc::new(keys);
    let deadlines = config.arc_deadlines();
    let escrow_deadlines = config.asset_escrow_deadlines(&deadlines);
    let mut arc_addrs = BTreeMap::new();
    for arc in &config.arcs {
        let chain_id = chain_ids[arc.chain.as_str()];
        let native = world.chain(chain_id).native_asset();
        let params = ArcEscrowParams {
            sender: arc.from,
            receiver: arc.to,
            asset: asset_ids[arc.asset_name.as_str()],
            amount: arc.amount,
            premium_asset: native,
            base_premium: config.base_premium,
            escrow_premium: arc.escrow_premium,
            hashlocks: Arc::clone(&hashlocks),
            digraph: Arc::clone(&digraph),
            keys: Arc::clone(&keys),
            deadlines: ArcDeadlines {
                asset_escrow_deadline: escrow_deadlines[&arc.from],
                ..deadlines.clone()
            },
            verify_cache: verify_cache.clone(),
            premium_evaluator: Arc::clone(&premium_evaluator),
        };
        let addr = world.publish(chain_id, Box::new(ArcEscrow::new(params)));
        arc_addrs.insert((arc.from, arc.to), addr);
    }

    let mut all_assets: Vec<AssetId> = asset_ids.values().copied().collect();
    all_assets.extend(native_assets.iter().copied());
    let before = BalanceSnapshot::capture(world, &parties, &all_assets);
    DealSetup {
        arc_addrs: Arc::new(arc_addrs),
        parties,
        native_assets,
        all_assets,
        secrets,
        keypairs,
        deadlines,
        escrow_deadlines,
        before,
    }
}

/// The earliest of `deadlines` still in the future — the next time a
/// frozen-world step's behaviour can change — or [`Time::MAX`] when every
/// deadline has passed (the step is then inert until other parties act).
fn wake_after(now: Time, deadlines: &[Time]) -> Time {
    deadlines.iter().copied().filter(|t| *t > now).min().unwrap_or(Time::MAX)
}

fn arc_contract(world: &World, addr: ContractAddr) -> &ArcEscrow {
    world.chain(addr.chain).contract_as::<ArcEscrow>(addr.contract).expect("arc escrow present")
}

fn arc_needs_settle(contract: &ArcEscrow, now: Time) -> bool {
    let deadlines = &contract.params().deadlines;
    let escrow_premium_stuck = contract.escrow_premium_state() == PremiumSlotState::Held
        && contract.principal_state() == PrincipalState::NotEscrowed
        && now.has_reached(deadlines.asset_escrow_deadline);
    let late = now.has_reached(deadlines.final_deadline);
    let principal_stuck = contract.principal_state() == PrincipalState::Held && late;
    let redemption_stuck = late
        && contract.params().hashlocks.iter().any(|(leader, _)| {
            contract.redemption_premium_state(*leader) == PremiumSlotState::Held
                && !contract.hashkey_presented(*leader)
        });
    escrow_premium_stuck || principal_stuck || redemption_stuck
}

/// The immutable context one party's five step closures share.
///
/// Wrapped in a single `Arc` so building a party's script costs five `Arc`
/// clones instead of re-cloning the arc tables and adjacency lists into
/// every phase closure.
struct PartyCtx {
    arc_addrs: Arc<BTreeMap<(PartyId, PartyId), ContractAddr>>,
    out_arcs: Vec<(PartyId, PartyId)>,
    in_arcs: Vec<(PartyId, PartyId)>,
    leader_list: Vec<PartyId>,
}

/// Builds the protocol script for one party of the deal.
fn party_steps(config: &DealConfig, setup: &DealSetup, me: PartyId) -> Vec<Step> {
    let ctx = Arc::new(PartyCtx {
        arc_addrs: Arc::clone(&setup.arc_addrs),
        out_arcs: config
            .digraph
            .out_arcs(me.0)
            .into_iter()
            .map(|(u, v)| (PartyId(u), PartyId(v)))
            .collect(),
        in_arcs: config
            .digraph
            .in_arcs(me.0)
            .into_iter()
            .map(|(u, v)| (PartyId(u), PartyId(v)))
            .collect(),
        leader_list: config.leaders.iter().copied().collect(),
    });
    let deadlines = &setup.deadlines;
    let wait_for_incoming = config.wait_for_incoming.contains(&me);
    let my_secret = setup.secrets.get(&me).cloned();
    let my_keys = setup.keypairs[&me].clone();
    let final_deadline = deadlines.final_deadline;

    let mut steps = Vec::new();

    // Phase 1: escrow premiums on outgoing arcs.
    {
        let ctx = Arc::clone(&ctx);
        let give_up = deadlines.escrow_premium_deadline;
        steps.push(
            Step::new("deposit escrow premiums", move |world: &World| {
                if world.now().has_reached(give_up) {
                    return StepOutcome::Complete(vec![]);
                }
                let ready = !wait_for_incoming
                    || ctx.in_arcs.iter().all(|arc| {
                        arc_contract(world, ctx.arc_addrs[arc]).escrow_premium_state()
                            != PremiumSlotState::NotDeposited
                    });
                if !ready {
                    // On a frozen world readiness cannot change; the clock only
                    // matters again at the give-up deadline.
                    return StepOutcome::WaitUntil(give_up);
                }
                let actions = ctx
                    .out_arcs
                    .iter()
                    .map(|arc| Action::call(ctx.arc_addrs[arc], ArcEscrowMsg::DepositEscrowPremium))
                    .collect();
                StepOutcome::Complete(actions)
            })
            .with_deadline(give_up),
        );
    }

    // Phase 2: redemption premiums, one obligation per leader.
    {
        let ctx = Arc::clone(&ctx);
        let give_up = deadlines.redemption_premium_deadline;
        let escrow_premium_deadline = deadlines.escrow_premium_deadline;
        steps.push(
            Step::stateful("deposit redemption premiums", move |memo, world: &World| {
                let done = &mut memo.done;
                let now = world.now();
                let mut actions = Vec::new();
                for &leader in &ctx.leader_list {
                    if done.contains(&leader) {
                        continue;
                    }
                    if now.has_reached(give_up) {
                        done.insert(leader);
                        continue;
                    }
                    if leader == me {
                        // Deposit only once every incoming escrow premium arrived
                        // (Lemma 5 behaviour); give up silently otherwise.
                        let all_in = ctx.in_arcs.iter().all(|arc| {
                            arc_contract(world, ctx.arc_addrs[arc]).escrow_premium_state()
                                != PremiumSlotState::NotDeposited
                        });
                        if all_in {
                            for arc in &ctx.in_arcs {
                                actions.push(Action::call(
                                    ctx.arc_addrs[arc],
                                    ArcEscrowMsg::DepositRedemptionPremium {
                                        leader,
                                        path: vec![me],
                                    },
                                ));
                            }
                            done.insert(leader);
                        } else if now.has_reached(escrow_premium_deadline) {
                            done.insert(leader);
                        }
                        continue;
                    }
                    // Follower rule: wait for a premium for this leader on some
                    // outgoing arc, then extend its path onto incoming arcs.
                    //
                    // Candidate paths are gathered from *every* outgoing arc: a
                    // path through this party cannot be extended, and a path
                    // through an in-arc's sender prices to zero on that arc
                    // (Equation (1) treats on-path senders as already
                    // protected), so each in-arc prefers the shortest
                    // sender-avoiding candidate. An earlier revision extended
                    // whichever path it happened to observe first, and a
                    // timing deviator could reorder observations so that a
                    // through-the-sender path arrived first — silently zeroing
                    // a compliant sender's compensation.
                    let mut candidates: Vec<Vec<PartyId>> = ctx
                        .out_arcs
                        .iter()
                        .filter_map(|arc| {
                            arc_contract(world, ctx.arc_addrs[arc])
                                .redemption_premium_path(leader)
                                .filter(|path| !path.contains(&me))
                                .map(|path| path.to_vec())
                        })
                        .collect();
                    candidates.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
                    candidates.dedup();
                    if candidates.is_empty() {
                        // Nothing extensible yet. If every outgoing arc already
                        // carries an (inextensible) path through this party, no
                        // better observation can come: give up on this leader.
                        let all_inextensible = !ctx.out_arcs.is_empty()
                            && ctx.out_arcs.iter().all(|arc| {
                                arc_contract(world, ctx.arc_addrs[arc])
                                    .redemption_premium_path(leader)
                                    .is_some_and(|path| path.contains(&me))
                            });
                        if all_inextensible {
                            done.insert(leader);
                        }
                        continue;
                    }
                    for arc in &ctx.in_arcs {
                        let best = candidates
                            .iter()
                            .find(|path| !path.contains(&arc.0))
                            .unwrap_or(&candidates[0]);
                        let mut extended = vec![me];
                        extended.extend_from_slice(best);
                        actions.push(Action::call(
                            ctx.arc_addrs[arc],
                            ArcEscrowMsg::DepositRedemptionPremium { leader, path: extended },
                        ));
                    }
                    done.insert(leader);
                }
                if done.len() == ctx.leader_list.len() {
                    StepOutcome::Complete(actions)
                } else if actions.is_empty() {
                    // Frozen-world behaviour only changes at the deadlines the
                    // branches above test (both with idempotent memo effects).
                    StepOutcome::WaitUntil(wake_after(now, &[give_up, escrow_premium_deadline]))
                } else {
                    StepOutcome::Progress(actions)
                }
            })
            .with_deadline(give_up),
        );
    }

    // Phase 3: escrow assets on outgoing arcs. The give-up (and the
    // contracts' acceptance window) is this sender's staggered deadline.
    {
        let ctx = Arc::clone(&ctx);
        let phase_start = deadlines.redemption_premium_deadline;
        let give_up = setup.escrow_deadlines[&me];
        steps.push(
            Step::new("escrow assets", move |world: &World| {
                let now = world.now();
                if now.has_reached(give_up) {
                    return StepOutcome::Complete(vec![]);
                }
                let ready = if wait_for_incoming {
                    ctx.in_arcs.iter().all(|arc| {
                        matches!(
                            arc_contract(world, ctx.arc_addrs[arc]).principal_state(),
                            PrincipalState::Held | PrincipalState::Redeemed
                        )
                    })
                } else {
                    now.has_reached(phase_start)
                };
                if !ready {
                    return StepOutcome::WaitUntil(if wait_for_incoming {
                        give_up
                    } else {
                        wake_after(now, &[phase_start, give_up])
                    });
                }
                // Leaders (and everyone else) only escrow on arcs whose escrow
                // premium is activated; an unactivated arc means the receiver
                // skipped its redemption premiums, so escrowing there is unsafe.
                let actions: Vec<Action> = ctx
                    .out_arcs
                    .iter()
                    .filter(|arc| {
                        arc_contract(world, ctx.arc_addrs[arc]).escrow_premium_activated()
                    })
                    .map(|arc| Action::call(ctx.arc_addrs[arc], ArcEscrowMsg::EscrowAsset))
                    .collect();
                StepOutcome::Complete(actions)
            })
            .with_deadline(give_up),
        );
    }

    // Phase 4: release and propagate hashkeys.
    {
        let ctx = Arc::clone(&ctx);
        let give_up = final_deadline;
        let asset_escrow_deadline = deadlines.asset_escrow_deadline;
        steps.push(
            Step::stateful("release and propagate hashkeys", move |memo, world: &World| {
                let done = &mut memo.done;
                let now = world.now();
                let mut actions = Vec::new();
                for &leader in &ctx.leader_list {
                    if done.contains(&leader) {
                        continue;
                    }
                    if now.has_reached(give_up) {
                        done.insert(leader);
                        continue;
                    }
                    let hashkey: Option<Hashkey> = if leader == me {
                        // Release the own secret once every incoming arc is
                        // funded (the normal case), or — per Lemma 4 — once it is
                        // clear this party escrowed nothing itself, so releasing
                        // is free and recovers its redemption premiums.
                        let all_in = !ctx.in_arcs.is_empty()
                            && ctx.in_arcs.iter().all(|arc| {
                                matches!(
                                    arc_contract(world, ctx.arc_addrs[arc]).principal_state(),
                                    PrincipalState::Held | PrincipalState::Redeemed
                                )
                            });
                        let escrowed_nothing = ctx.out_arcs.iter().all(|arc| {
                            matches!(
                                arc_contract(world, ctx.arc_addrs[arc]).principal_state(),
                                PrincipalState::NotEscrowed
                            )
                        });
                        let past_escrow_phase = now.has_reached(asset_escrow_deadline);
                        if all_in || (escrowed_nothing && past_escrow_phase) {
                            my_secret
                                .as_ref()
                                .map(|secret| leader_hashkey(world, me, secret, &my_keys))
                        } else {
                            None
                        }
                    } else {
                        // Learn the hashkey from an outgoing arc and extend it.
                        ctx.out_arcs.iter().find_map(|arc| {
                            arc_contract(world, ctx.arc_addrs[arc])
                                .presented_hashkey(leader)
                                .map(|k| extended_hashkey(world, k, me, &my_keys))
                        })
                    };
                    if let Some(hashkey) = hashkey {
                        for arc in &ctx.in_arcs {
                            actions.push(Action::call(
                                ctx.arc_addrs[arc],
                                ArcEscrowMsg::PresentHashkey { hashkey: hashkey.clone() },
                            ));
                        }
                        done.insert(leader);
                    }
                }
                if done.len() == ctx.leader_list.len() {
                    StepOutcome::Complete(actions)
                } else if actions.is_empty() {
                    // Frozen-world behaviour only changes when the escrow phase
                    // ends (Lemma-4 release) or at the final deadline.
                    StepOutcome::WaitUntil(wake_after(now, &[asset_escrow_deadline, give_up]))
                } else {
                    StepOutcome::Progress(actions)
                }
            })
            .with_deadline(give_up),
        );
    }

    // Recovery: settle every incident arc after the final deadline.
    {
        let ctx = Arc::clone(&ctx);
        let incident: Vec<(PartyId, PartyId)> =
            ctx.out_arcs.iter().chain(ctx.in_arcs.iter()).copied().collect();
        steps.push(Step::new("settle incident arcs", move |world: &World| {
            let now = world.now();
            let unresolved: Vec<&(PartyId, PartyId)> = incident
                .iter()
                .filter(|arc| arc_needs_settle(arc_contract(world, ctx.arc_addrs[arc]), now))
                .collect();
            let anything_pending = incident.iter().any(|arc| {
                let c = arc_contract(world, ctx.arc_addrs[arc]);
                c.escrow_premium_state() == PremiumSlotState::Held
                    || c.principal_state() == PrincipalState::Held
                    || c.params()
                        .hashlocks
                        .iter()
                        .any(|(l, _)| c.redemption_premium_state(*l) == PremiumSlotState::Held)
            });
            if !anything_pending {
                return StepOutcome::Complete(vec![]);
            }
            if !now.has_reached(final_deadline) {
                return StepOutcome::WaitUntil(final_deadline);
            }
            let actions: Vec<Action> = unresolved
                .into_iter()
                .map(|arc| Action::call(ctx.arc_addrs[arc], ArcEscrowMsg::Settle))
                .collect();
            StepOutcome::Complete(actions)
        }));
    }

    steps
}

/// A deal configuration is the deal engine's [`Protocol`]: multi-party
/// swaps (§7) and brokered sales (§8) are both run through it.
impl Protocol for DealConfig {
    type Setup = DealSetup;
    type Report = DealReport;

    fn setup(&self, world: &mut World) -> DealSetup {
        build(world, self)
    }

    fn script(&self, setup: &DealSetup, profile: Profile<'_>) -> Vec<ScriptedParty> {
        setup
            .parties
            .iter()
            .map(|&party| {
                let steps = party_steps(self, setup, party);
                debug_assert_eq!(
                    steps.len(),
                    SCRIPT_STEPS,
                    "SCRIPT_STEPS must match the deal script so sweeps cover all stop-points"
                );
                ScriptedParty::new(party, steps, profile(party)).with_delta(self.delta_blocks)
            })
            .collect()
    }

    /// Past the final deadline plus slack for the settlement steps.
    fn max_rounds(&self, setup: &DealSetup) -> u64 {
        setup.deadlines.final_deadline.height() + 3 * self.delta_blocks + 4
    }

    fn report(
        &self,
        world: &World,
        setup: &DealSetup,
        tally: Tally,
        profile: Profile<'_>,
    ) -> DealReport {
        let after = BalanceSnapshot::capture(world, &setup.parties, &setup.all_assets);
        let payoffs = Payoffs::between(&setup.before, &after);
        let arc_states: Vec<((PartyId, PartyId), PrincipalState)> = setup
            .arc_addrs
            .iter()
            .map(|(arc, addr)| (*arc, arc_contract(world, *addr).principal_state()))
            .collect();
        let mut outcomes: BTreeMap<PartyId, DealPartyOutcome> = BTreeMap::new();
        let mut completed = true;
        for &party in &setup.parties {
            let strategy = profile(party);
            let mut outcome = DealPartyOutcome {
                premium_payoff: payoffs.total_over(party, &setup.native_assets).value(),
                ..DealPartyOutcome::default()
            };
            for (arc, principal_state) in &arc_states {
                if *principal_state != PrincipalState::Redeemed {
                    completed = false;
                }
                if arc.0 == party {
                    match principal_state {
                        PrincipalState::Redeemed => outcome.escrowed_redeemed += 1,
                        PrincipalState::Refunded => outcome.escrowed_unredeemed += 1,
                        PrincipalState::Held => outcome.escrowed_stuck += 1,
                        PrincipalState::NotEscrowed => {}
                    }
                }
                if arc.1 == party {
                    outcome.incoming_arcs += 1;
                    if *principal_state == PrincipalState::Redeemed {
                        outcome.received += 1;
                    }
                }
            }
            // §7's guarantee is *total*: a failed swap leaves a compliant
            // party with at least one base premium p in net compensation,
            // not p per unredeemed arc. The Equation (1) recursion is
            // pass-the-parcel sized — the premium deposited on an arc covers
            // the receiver's own p plus everything the receiver forfeits
            // upstream — so on digraphs with heavily overlapping redemption
            // paths a compliant party with several unredeemed escrows
            // legitimately nets exactly +p (see the README theorem notes;
            // `random_config(5, 4, seeds 2 and 4)` pin the boundary case).
            let compensation_due =
                if outcome.escrowed_unredeemed > 0 { self.base_premium.value() as i128 } else { 0 };
            outcome.hedge_margin = outcome.premium_payoff - compensation_due;
            outcome.hedged = !strategy.is_compliant() || outcome.hedge_margin >= 0;
            outcome.safety = !strategy.is_compliant()
                || outcome.escrowed_redeemed == 0
                || outcome.received == outcome.incoming_arcs;
            outcomes.insert(party, outcome);
        }
        DealReport {
            strategies: setup.parties.iter().map(|&party| (party, profile(party))).collect(),
            completed,
            parties: outcomes,
            payoffs,
            failed_actions: tally.failed,
            rounds: tally.rounds,
        }
    }
}

/// Builds the deal's world (every arc escrow published with its real
/// deadline parameters) and compliant scripted parties without executing a
/// single round; see [`Protocol::static_setup`].
pub fn deal_static_setup(config: &DealConfig) -> (World, Vec<ScriptedParty>) {
    config.static_setup()
}

/// Runs one profile of `config` (parties `strategies` does not name are
/// compliant) through the [`Prefix`] in `cache`, recording it on first
/// use. The cache belongs to one configuration.
pub fn run_deal_shared(
    world: &mut World,
    config: &DealConfig,
    strategies: &BTreeMap<PartyId, Strategy>,
    cache: &mut Option<Prefix<DealConfig>>,
) -> DealReport {
    cache
        .get_or_insert_with(|| Prefix::record(config.clone(), world))
        .run(&profile(strategies), world)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multi_party::{figure3_config, swap_config};

    #[test]
    fn compliant_figure3_deal_completes() {
        let config = figure3_config();
        let report = config.run(&|_| Strategy::compliant(), &mut World::new(1));
        assert!(report.completed, "all arcs should be redeemed: {report:?}");
        assert!(report.all_compliant_hedged());
        assert_eq!(report.failed_actions, 0);
        for outcome in report.parties.values() {
            assert_eq!(outcome.premium_payoff, 0, "premiums refunded in a compliant run");
        }
        assert!(report.payoffs.conserved());
    }

    #[test]
    fn an_edited_clone_runs_on_its_own_deadlines() {
        // The original runs first, so anything it derived and a clone could
        // share is in place before the clone is edited.
        let original = figure3_config();
        let mut world = World::new(1);
        let _ = original.run(&|_| Strategy::compliant(), &mut world);
        let mut edited = original.clone();
        edited.delta_blocks = 3;
        let fresh = swap_config(
            &Digraph::figure3(),
            &BTreeSet::from([0]),
            Amount::new(100),
            Amount::new(1),
            3,
        );
        assert_eq!(edited.arc_deadlines(), fresh.arc_deadlines());
        let edited_report = edited.run(&|_| Strategy::compliant(), &mut world);
        let fresh_report = fresh.run(&|_| Strategy::compliant(), &mut World::new(1));
        assert_eq!(edited_report.rounds, 24);
        assert_eq!(format!("{edited_report:?}"), format!("{fresh_report:?}"));
    }
}
