//! Two-party swaps: the unhedged base protocol (§5.1) and the hedged
//! protocol (§5.2).
//!
//! Both protocols swap `A` apricot tokens owned by Alice for `B` banana
//! tokens owned by Bob. The base protocol uses two [`HtlcEscrow`]s and is
//! vulnerable to sore-loser attacks: whoever escrows first can be left
//! locked up with no compensation. The hedged protocol prefixes a premium
//! distribution phase using two [`HedgedEscrow`]s with the §5.2 timeout
//! schedule, after which every unilateral walk-away costs the deviator a
//! premium that compensates the victim.

use chainsim::{Action, Amount, AssetId, ChainId, ContractAddr, PartyId, Time, World};
use contracts::{
    HedgedEscrow, HedgedEscrowMsg, HedgedPremiumState, HedgedPrincipalState, HtlcEscrow, HtlcMsg,
    HtlcState,
};
use cryptosim::Secret;
use serde::{Deserialize, Serialize};

use crate::market::HedgedSwapSpec;
use crate::outcome::{BalanceSnapshot, Lockup, Payoffs};
use crate::script::{Prefix, Profile, Protocol, ScriptedParty, Step, StepOutcome, Strategy};

/// Alice's party id in two-party protocols.
pub const ALICE: PartyId = PartyId(0);
/// Bob's party id in two-party protocols.
pub const BOB: PartyId = PartyId(1);

/// The number of scripted steps in each hedged two-party role (premium,
/// escrow, redeem, settle).
pub const SCRIPT_STEPS: usize = 4;

/// The number of scripted steps in each *base* two-party role (escrow,
/// redeem, refund) — one shorter than the hedged scripts (no premium
/// phase). The base space is enumerated over this exact length: a stop
/// point at the hedged length would be behaviourally identical to
/// compliance and would double-count the compliant outcome in sweep
/// summaries.
pub const BASE_SCRIPT_STEPS: usize = 3;

/// Every distinct per-party strategy of the *hedged* two-party swap: the
/// full `stop_after × timing × faults` product over the four-step scripts
/// (see [`Strategy::all`] for the dedup rules).
///
/// This is the exact space the model checker and conformance sweeps range
/// over; sweeping anything else either duplicates runs (two stop-points past
/// the script's end behave identically) or misses deviations.
pub fn strategy_space() -> Vec<Strategy> {
    Strategy::all(SCRIPT_STEPS)
}

/// Every distinct per-party strategy of the *base* (unhedged) swap: the
/// same product space over its three-step scripts. See
/// [`BASE_SCRIPT_STEPS`] for why the base space is one step shorter.
pub fn base_strategy_space() -> Vec<Strategy> {
    Strategy::all(BASE_SCRIPT_STEPS)
}

/// The strategy space of the given protocol variant (see
/// [`strategy_space`]/[`base_strategy_space`]).
pub fn strategy_space_for(protocol: SwapProtocol) -> Vec<Strategy> {
    match protocol {
        SwapProtocol::Hedged => strategy_space(),
        SwapProtocol::Base => base_strategy_space(),
    }
}

/// Configuration of a two-party swap experiment.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TwoPartyConfig {
    /// Alice's principal: `A` apricot tokens.
    pub alice_tokens: Amount,
    /// Bob's principal: `B` banana tokens.
    pub bob_tokens: Amount,
    /// Alice's premium `p_a` (her compensation to Bob if she reneges).
    pub premium_a: Amount,
    /// Bob's premium `p_b` (his compensation to Alice if he reneges).
    pub premium_b: Amount,
    /// The synchrony bound Δ, in blocks.
    pub delta_blocks: u64,
    /// Per-chain Δ override for the apricot chain, in blocks (zero inherits
    /// [`delta_blocks`](TwoPartyConfig::delta_blocks)). Heterogeneous
    /// per-chain Δ stretches the deadline ladder: each step's deadline
    /// extends the previous one by the Δ of the chain that step's action
    /// must propagate on.
    #[serde(default)]
    pub delta_apricot: u64,
    /// Per-chain Δ override for the banana chain; see
    /// [`delta_apricot`](TwoPartyConfig::delta_apricot).
    #[serde(default)]
    pub delta_banana: u64,
    /// Finality margin in blocks, padded into every *contract* deadline but
    /// never into the compliant scripts' give-up times. From
    /// [`min_finality_margin`] up, re-delivering reorgs are observationally
    /// harmless to compliant parties; with a margin of zero a reorg can
    /// push a last-tick call past its deadline (the sore-loser-by-reorg
    /// scenario the sampled sweeps hunt).
    #[serde(default)]
    pub finality_margin: u64,
}

impl Default for TwoPartyConfig {
    fn default() -> Self {
        TwoPartyConfig {
            alice_tokens: Amount::new(100),
            bob_tokens: Amount::new(100),
            premium_a: Amount::new(2),
            premium_b: Amount::new(2),
            delta_blocks: 2,
            delta_apricot: 0,
            delta_banana: 0,
            finality_margin: 0,
        }
    }
}

/// The hedged swap's six-deadline ladder (§5.2), generalized over per-chain
/// Δ. With both chains at the global Δ this is exactly the paper's
/// `1Δ, 2Δ, …, 6Δ`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HedgedSchedule {
    /// Alice's premium deposit on the banana chain (`1Δ`).
    pub premium_banana: Time,
    /// Bob's premium deposit on the apricot chain (`2Δ`).
    pub premium_apricot: Time,
    /// Alice's principal escrow on the apricot chain (`3Δ`).
    pub escrow_apricot: Time,
    /// Bob's principal escrow on the banana chain (`4Δ`).
    pub escrow_banana: Time,
    /// Alice's redemption on the banana chain (`5Δ`).
    pub redeem_banana: Time,
    /// Bob's redemption on the apricot chain (`6Δ`).
    pub redeem_apricot: Time,
}

impl TwoPartyConfig {
    /// The apricot chain's effective Δ in blocks.
    pub fn delta_a(&self) -> u64 {
        if self.delta_apricot == 0 {
            self.delta_blocks
        } else {
            self.delta_apricot
        }
    }

    /// The banana chain's effective Δ in blocks.
    pub fn delta_b(&self) -> u64 {
        if self.delta_banana == 0 {
            self.delta_blocks
        } else {
            self.delta_banana
        }
    }

    /// The hedged deadline ladder for this configuration: cumulative sums
    /// where each step adds the Δ of the chain its action propagates on.
    pub fn hedged_schedule(&self) -> HedgedSchedule {
        let (da, db) = (self.delta_a(), self.delta_b());
        let t1 = db; // Alice's premium is on banana
        let t2 = t1 + da; // Bob's premium is on apricot
        let t3 = t2 + da; // Alice's escrow is on apricot
        let t4 = t3 + db; // Bob's escrow is on banana
        let t5 = t4 + db; // Alice's redeem is on banana
        let t6 = t5 + da; // Bob's redeem is on apricot
        HedgedSchedule {
            premium_banana: Time(t1),
            premium_apricot: Time(t2),
            escrow_apricot: Time(t3),
            escrow_banana: Time(t4),
            redeem_banana: Time(t5),
            redeem_apricot: Time(t6),
        }
    }

    /// The base (§5.1) HTLC timelocks `(banana, apricot)`: the banana leg
    /// times out after `Δ_a + Δ_b` (the paper's `2Δ`), the apricot leg one
    /// apricot-propagation later (`2Δ_a + Δ_b`, the paper's `3Δ`).
    pub fn base_timelocks(&self) -> (Time, Time) {
        let (da, db) = (self.delta_a(), self.delta_b());
        (Time(da + db), Time(2 * da + db))
    }

    /// Pads a contract-side deadline with the finality margin. Compliant
    /// scripts keep the unpadded time, so their last legal call is at least
    /// `finality_margin` blocks clear of the contract's cut-off.
    fn padded(&self, deadline: Time) -> Time {
        deadline.plus(self.finality_margin)
    }
}

/// Which protocol variant produced a report.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SwapProtocol {
    /// The unhedged §5.1 HTLC swap.
    Base,
    /// The hedged §5.2 swap with premiums.
    Hedged,
}

/// The outcome of a two-party swap run.
#[derive(Clone, Debug)]
pub struct TwoPartyReport {
    /// Which protocol was run.
    pub protocol: SwapProtocol,
    /// The strategies the parties followed.
    pub strategies: (Strategy, Strategy),
    /// Whether both principals were redeemed (the swap completed).
    pub swap_completed: bool,
    /// Per-party, per-asset payoffs.
    pub payoffs: Payoffs,
    /// Alice's net payoff in apricot tokens.
    pub alice_apricot_payoff: i128,
    /// Alice's net payoff in banana tokens.
    pub alice_banana_payoff: i128,
    /// Bob's net payoff in apricot tokens.
    pub bob_apricot_payoff: i128,
    /// Bob's net payoff in banana tokens.
    pub bob_banana_payoff: i128,
    /// Alice's net premium (native-currency) payoff across both chains.
    pub alice_premium_payoff: i128,
    /// Bob's net premium (native-currency) payoff across both chains.
    pub bob_premium_payoff: i128,
    /// Alice's principal lock-up on the apricot chain.
    pub alice_lockup: Lockup,
    /// Bob's principal lock-up on the banana chain.
    pub bob_lockup: Lockup,
    /// How far above (or, negative, below) the hedged threshold the run
    /// left Alice. Escrow redeemed: the lesser of her banana surplus over
    /// `bob_tokens` and her premium payoff; escrow refunded: her premium
    /// payoff minus the compensation `premium_b`; never escrowed: her
    /// premium payoff.
    pub alice_hedge_margin: i128,
    /// Bob's hedge margin, symmetrically (apricot surplus over
    /// `alice_tokens`, compensation `premium_a`).
    pub bob_hedge_margin: i128,
    /// Whether compliant Alice ended up hedged: `alice_hedge_margin >= 0`
    /// (vacuously true if she deviated).
    pub hedged_for_alice: bool,
    /// Whether compliant Bob ended up hedged: `bob_hedge_margin >= 0`
    /// (vacuously true if he deviated).
    pub hedged_for_bob: bool,
    /// Number of rejected actions during the run (protocol noise).
    pub failed_actions: usize,
    /// Number of synchronous rounds executed.
    pub rounds: usize,
}

/// What a two-party swap's setup leaves behind: the two escrows, the four
/// assets, the secret and the balances before the first round.
#[derive(Clone, Debug)]
pub struct SwapSetup {
    apricot_token: AssetId,
    banana_token: AssetId,
    apricot_native: AssetId,
    banana_native: AssetId,
    apricot_contract: ContractAddr,
    banana_contract: ContractAddr,
    secret: Secret,
    before: BalanceSnapshot,
}

impl SwapSetup {
    fn assets(&self) -> [AssetId; 4] {
        [self.apricot_token, self.banana_token, self.apricot_native, self.banana_native]
    }
}

/// Labels under which the two escrow contracts are registered.
const APRICOT_LABEL: &str = "two-party/apricot-escrow";
/// See [`APRICOT_LABEL`].
const BANANA_LABEL: &str = "two-party/banana-escrow";

/// The apricot and banana chains of a two-party world.
const APRICOT: ChainId = ChainId(0);
/// See [`APRICOT`].
const BANANA: ChainId = ChainId(1);

fn build_world(world: &mut World, config: &TwoPartyConfig) -> (AssetId, AssetId, AssetId, AssetId) {
    world.reset(1);
    let apricot = world.add_chain("apricot");
    let banana = world.add_chain("banana");
    debug_assert_eq!((apricot, banana), (APRICOT, BANANA));
    let apricot_native = world.chain(apricot).native_asset();
    let banana_native = world.chain(banana).native_asset();
    let apricot_token = world.register_asset("apricot-token");
    let banana_token = world.register_asset("banana-token");
    // Endowments: principals plus enough native currency for premiums.
    world.chain_mut(apricot).mint(ALICE, apricot_token, config.alice_tokens);
    world.chain_mut(banana).mint(BOB, banana_token, config.bob_tokens);
    world.chain_mut(banana).mint(ALICE, banana_native, config.premium_a + config.premium_b);
    world.chain_mut(apricot).mint(BOB, apricot_native, config.premium_b);
    (apricot_token, banana_token, apricot_native, banana_native)
}

/// Publishes the swap's two escrows: `(apricot, banana)`.
fn publish(
    world: &mut World,
    config: &TwoPartyConfig,
    protocol: SwapProtocol,
    assets: [AssetId; 4],
    hashlock: cryptosim::Hashlock,
) -> (ContractAddr, ContractAddr) {
    match protocol {
        SwapProtocol::Hedged => {
            // Banana-chain contract: Bob escrows B, Alice deposits p_a + p_b;
            // apricot-chain contract: Alice escrows A, Bob deposits p_b.
            // The compliant scripts act against the unpadded ladder, so
            // anchoring the legs at the finality margin lets a reorg
            // re-deliver a last-tick call up to that many blocks late.
            let [apricot_token, banana_token, apricot_native, banana_native] = assets;
            let spec = HedgedSwapSpec {
                leader: ALICE,
                follower: BOB,
                leader_token: apricot_token,
                follower_token: banana_token,
                leader_native: apricot_native,
                follower_native: banana_native,
                leader_amount: config.alice_tokens,
                follower_amount: config.bob_tokens,
                premium_leader: config.premium_a,
                premium_follower: config.premium_b,
                hashlock,
            };
            let (anchor, schedule) = (Time(config.finality_margin), config.hedged_schedule());
            let apricot = spec.leader_leg(anchor, &schedule);
            let banana = spec.follower_leg(anchor, &schedule);
            let banana = world.publish_labeled(
                BANANA,
                BOB,
                BANANA_LABEL,
                Box::new(HedgedEscrow::new(banana)),
            );
            let apricot = world.publish_labeled(
                APRICOT,
                ALICE,
                APRICOT_LABEL,
                Box::new(HedgedEscrow::new(apricot)),
            );
            (apricot, banana)
        }
        SwapProtocol::Base => {
            // §5.1: Alice's apricot escrow with timelock 3Δ, Bob's banana
            // escrow with 2Δ (both generalized over per-chain Δ and padded
            // with the finality margin, like the hedged contracts).
            let [apricot_token, banana_token, ..] = assets;
            let (banana_timelock, apricot_timelock) = config.base_timelocks();
            let apricot = world.publish_labeled(
                APRICOT,
                ALICE,
                APRICOT_LABEL,
                Box::new(HtlcEscrow::new(
                    ALICE,
                    BOB,
                    apricot_token,
                    config.alice_tokens,
                    hashlock,
                    config.padded(apricot_timelock),
                )),
            );
            let banana = world.publish_labeled(
                BANANA,
                BOB,
                BANANA_LABEL,
                Box::new(HtlcEscrow::new(
                    BOB,
                    ALICE,
                    banana_token,
                    config.bob_tokens,
                    hashlock,
                    config.padded(banana_timelock),
                )),
            );
            (apricot, banana)
        }
    }
}

pub(crate) fn hedged_contract(world: &World, addr: ContractAddr) -> &HedgedEscrow {
    world
        .chain(addr.chain)
        .contract_as::<HedgedEscrow>(addr.contract)
        .expect("hedged escrow present")
}

fn htlc_contract(world: &World, addr: ContractAddr) -> &HtlcEscrow {
    world.chain(addr.chain).contract_as::<HtlcEscrow>(addr.contract).expect("htlc present")
}

fn hedged_needs_settle(contract: &HedgedEscrow, now: Time) -> bool {
    let p = contract.params();
    let premium_stuck = contract.premium_state() == HedgedPremiumState::Held
        && contract.principal_state() == HedgedPrincipalState::NotEscrowed
        && now.has_reached(p.escrow_deadline);
    let principal_stuck = contract.principal_state() == HedgedPrincipalState::Held
        && now.has_reached(p.redeem_deadline);
    premium_stuck || principal_stuck
}

fn hedged_resolved(contract: &HedgedEscrow) -> bool {
    contract.premium_state() != HedgedPremiumState::Held
        && contract.principal_state() != HedgedPrincipalState::Held
}

/// Alice's script for the hedged swap.
fn hedged_alice_steps(setup: &SwapSetup, config: &TwoPartyConfig) -> Vec<Step> {
    let banana = setup.banana_contract;
    let apricot = setup.apricot_contract;
    let secret = setup.secret.clone();
    let sched = config.hedged_schedule();
    let premium_give_up = sched.premium_banana;
    let escrow_give_up = sched.escrow_apricot;
    let redeem_give_up = sched.redeem_banana;
    // Settlement waits for the *padded* final deadline: contracts only
    // become settleable once their (margin-padded) cut-offs pass.
    let final_deadline = config.padded(sched.redeem_apricot);
    vec![
        Step::new("alice: deposit premium on banana", move |_world: &World| {
            StepOutcome::Complete(vec![Action::call(banana, HedgedEscrowMsg::DepositPremium)])
        })
        .with_deadline(premium_give_up),
        Step::new("alice: escrow principal on apricot", move |world: &World| {
            if world.now().has_reached(escrow_give_up) {
                return StepOutcome::Complete(vec![]);
            }
            if hedged_contract(world, apricot).premium_state() == HedgedPremiumState::Held {
                StepOutcome::Complete(vec![Action::call(apricot, HedgedEscrowMsg::EscrowPrincipal)])
            } else {
                StepOutcome::WaitUntil(escrow_give_up)
            }
        })
        .with_deadline(escrow_give_up),
        Step::new("alice: redeem banana principal", move |world: &World| {
            if world.now().has_reached(redeem_give_up) {
                return StepOutcome::Complete(vec![]);
            }
            if hedged_contract(world, banana).principal_state() == HedgedPrincipalState::Held {
                StepOutcome::Complete(vec![Action::call(
                    banana,
                    HedgedEscrowMsg::Redeem { secret: secret.clone() },
                )])
            } else {
                StepOutcome::WaitUntil(redeem_give_up)
            }
        })
        .with_deadline(redeem_give_up),
        settle_step("alice: settle", vec![apricot, banana], final_deadline),
    ]
}

/// Bob's script for the hedged swap.
fn hedged_bob_steps(setup: &SwapSetup, config: &TwoPartyConfig) -> Vec<Step> {
    let banana = setup.banana_contract;
    let apricot = setup.apricot_contract;
    let sched = config.hedged_schedule();
    let premium_give_up = sched.premium_apricot;
    let escrow_give_up = sched.escrow_banana;
    let redeem_give_up = sched.redeem_apricot;
    let final_deadline = config.padded(sched.redeem_apricot);
    vec![
        Step::new("bob: deposit premium on apricot", move |world: &World| {
            if world.now().has_reached(premium_give_up) {
                return StepOutcome::Complete(vec![]);
            }
            if hedged_contract(world, banana).premium_state() == HedgedPremiumState::Held {
                StepOutcome::Complete(vec![Action::call(apricot, HedgedEscrowMsg::DepositPremium)])
            } else {
                StepOutcome::WaitUntil(premium_give_up)
            }
        })
        .with_deadline(premium_give_up),
        Step::new("bob: escrow principal on banana", move |world: &World| {
            if world.now().has_reached(escrow_give_up) {
                return StepOutcome::Complete(vec![]);
            }
            if hedged_contract(world, apricot).principal_state() == HedgedPrincipalState::Held {
                StepOutcome::Complete(vec![Action::call(banana, HedgedEscrowMsg::EscrowPrincipal)])
            } else {
                StepOutcome::WaitUntil(escrow_give_up)
            }
        })
        .with_deadline(escrow_give_up),
        Step::new("bob: redeem apricot principal", move |world: &World| {
            if world.now().has_reached(redeem_give_up) {
                return StepOutcome::Complete(vec![]);
            }
            if let Some(secret) = hedged_contract(world, banana).revealed_secret() {
                StepOutcome::Complete(vec![Action::call(
                    apricot,
                    HedgedEscrowMsg::Redeem { secret: secret.clone() },
                )])
            } else {
                StepOutcome::WaitUntil(redeem_give_up)
            }
        })
        .with_deadline(redeem_give_up),
        settle_step("bob: settle", vec![apricot, banana], final_deadline),
    ]
}

/// A recovery step: once every contract is resolved the step completes; once
/// the final deadline passes it settles whatever still needs it.
pub(crate) fn settle_step(
    name: &'static str,
    contracts: Vec<ContractAddr>,
    final_deadline: Time,
) -> Step {
    Step::new(name, move |world: &World| {
        let all_resolved =
            contracts.iter().all(|addr| hedged_resolved(hedged_contract(world, *addr)));
        if all_resolved {
            return StepOutcome::Complete(vec![]);
        }
        if !world.now().has_reached(final_deadline) {
            return StepOutcome::WaitUntil(final_deadline);
        }
        let calls: Vec<Action> = contracts
            .iter()
            .filter(|addr| hedged_needs_settle(hedged_contract(world, **addr), world.now()))
            .map(|addr| Action::call(*addr, HedgedEscrowMsg::Settle))
            .collect();
        StepOutcome::Complete(calls)
    })
}

/// Alice's script for the base (unhedged) swap.
fn base_alice_steps(setup: &SwapSetup, config: &TwoPartyConfig) -> Vec<Step> {
    let apricot = setup.apricot_contract;
    let banana = setup.banana_contract;
    let secret = setup.secret.clone();
    // Alice's escrow is legal until the apricot timelock (3Δ); her
    // redemption must land strictly before the banana timelock (2Δ). The
    // give-ups use the unpadded timelocks: the margin is contract-side
    // slack for reorg re-delivery, not extra time to act.
    let (banana_timelock, apricot_timelock) = config.base_timelocks();
    let escrow_deadline = apricot_timelock;
    let redeem_give_up = banana_timelock;
    let final_deadline = config.padded(apricot_timelock);
    vec![
        Step::new("alice: escrow principal on apricot", move |_world: &World| {
            StepOutcome::Complete(vec![Action::call(apricot, HtlcMsg::Escrow)])
        })
        .with_deadline(escrow_deadline),
        Step::new("alice: redeem banana principal", move |world: &World| {
            if world.now().has_reached(redeem_give_up) {
                return StepOutcome::Complete(vec![]);
            }
            if htlc_contract(world, banana).state() == HtlcState::Escrowed {
                StepOutcome::Complete(vec![Action::call(
                    banana,
                    HtlcMsg::Redeem { secret: secret.clone() },
                )])
            } else {
                StepOutcome::WaitUntil(redeem_give_up)
            }
        })
        .with_deadline(redeem_give_up),
        base_recovery_step(
            "alice: refund timed-out escrows",
            vec![apricot, banana],
            final_deadline,
        ),
    ]
}

/// Bob's script for the base (unhedged) swap.
fn base_bob_steps(setup: &SwapSetup, config: &TwoPartyConfig) -> Vec<Step> {
    let apricot = setup.apricot_contract;
    let banana = setup.banana_contract;
    let (banana_timelock, apricot_timelock) = config.base_timelocks();
    let escrow_give_up = banana_timelock;
    // The secret can only *appear* strictly before the banana timelock
    // (2Δ), but Bob observes the chain with a one-round lag and can legally
    // redeem until the apricot timelock (3Δ). Giving up already at 2Δ — as
    // an earlier revision did — silently forfeited swaps against a
    // last-instant (procrastinating) Alice whose reveal lands exactly at
    // 2Δ − 1: the boundary round in which the secret is on chain but Bob
    // has not seen it yet. He gives up one observation round later instead.
    //
    // The `canary-bugs` feature reintroduces the fixed bug so the sampled
    // sweeps can prove they find and shrink it (see modelcheck's canary
    // tests); it must never be enabled in a real build.
    #[cfg(not(feature = "canary-bugs"))]
    let redeem_give_up = banana_timelock.plus(1);
    #[cfg(feature = "canary-bugs")]
    let redeem_give_up = banana_timelock;
    let final_deadline = config.padded(apricot_timelock);
    vec![
        Step::new("bob: escrow principal on banana", move |world: &World| {
            if world.now().has_reached(escrow_give_up) {
                return StepOutcome::Complete(vec![]);
            }
            if htlc_contract(world, apricot).state() == HtlcState::Escrowed {
                StepOutcome::Complete(vec![Action::call(banana, HtlcMsg::Escrow)])
            } else {
                StepOutcome::WaitUntil(escrow_give_up)
            }
        })
        .with_deadline(escrow_give_up),
        Step::new("bob: redeem apricot principal", move |world: &World| {
            if world.now().has_reached(redeem_give_up) {
                return StepOutcome::Complete(vec![]);
            }
            if let Some(secret) = htlc_contract(world, banana).revealed_secret() {
                StepOutcome::Complete(vec![Action::call(
                    apricot,
                    HtlcMsg::Redeem { secret: secret.clone() },
                )])
            } else {
                StepOutcome::WaitUntil(redeem_give_up)
            }
        })
        // The deadline annotation must match the give-up, not the apricot
        // timelock (3Δ): an annotation past the give-up would let a
        // procrastinator's hold land on the give-up tick and silently drop
        // a legal redemption (the with_deadline stability contract).
        .with_deadline(redeem_give_up),
        base_recovery_step("bob: refund timed-out escrows", vec![apricot, banana], final_deadline),
    ]
}

fn base_recovery_step(
    name: &'static str,
    contracts: Vec<ContractAddr>,
    _final_deadline: Time,
) -> Step {
    Step::new(name, move |world: &World| {
        let pending: Vec<ContractAddr> = contracts
            .iter()
            .copied()
            .filter(|addr| htlc_contract(world, *addr).state() == HtlcState::Escrowed)
            .collect();
        if pending.is_empty() {
            return StepOutcome::Complete(vec![]);
        }
        let refunds: Vec<Action> = pending
            .iter()
            .filter(|addr| world.now().has_reached(htlc_contract(world, **addr).timelock()))
            .map(|addr| Action::call(*addr, HtlcMsg::Refund))
            .collect();
        if refunds.is_empty() {
            // Refunds unlock at the earliest pending timelock.
            let wake = pending
                .iter()
                .map(|addr| htlc_contract(world, *addr).timelock())
                .filter(|t| *t > world.now())
                .min()
                .unwrap_or(chainsim::Time::MAX);
            StepOutcome::WaitUntil(wake)
        } else if refunds.len() == pending.len() {
            StepOutcome::Complete(refunds)
        } else {
            StepOutcome::Progress(refunds)
        }
    })
}

/// Chain-realism overlay for a two-party run: per-chain finality lag plus a
/// deterministic reorg schedule, applied by the swap's setup before the
/// first protocol round. The default overlay (zero depths, no reorgs)
/// changes nothing.
///
/// The overlay is part of the swap, so a [`Prefix`] of one swap serves
/// only its own overlay; the sampled reorg family, which draws an overlay
/// per sample, runs each from scratch ([`Protocol::run`]). With
/// [`TwoPartyConfig::finality_margin`] at least
/// [`min_finality_margin`], re-delivering reorgs are absorbed by the padded
/// contract deadlines; below it they can push a party's last-tick call past
/// its deadline.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SwapRealism {
    /// Finality lag (revertible trailing rounds) of the apricot chain.
    pub apricot_depth: u32,
    /// Finality lag of the banana chain.
    pub banana_depth: u32,
    /// Reorgs to schedule, in firing order. In two-party worlds the apricot
    /// chain is [`chainsim::ChainId`]`(0)` and the banana chain is
    /// `ChainId(1)`; `at_round` counts protocol rounds from setup.
    pub reorgs: Vec<chainsim::ReorgEvent>,
}

impl SwapRealism {
    fn apply(&self, world: &mut World) {
        for (chain, depth) in [(APRICOT, self.apricot_depth), (BANANA, self.banana_depth)] {
            if depth > 0 {
                world.set_finality(chain, chainsim::FinalityParams { depth, delta: 0 });
            }
        }
        for event in &self.reorgs {
            world.schedule_reorg(*event);
        }
    }
}

/// The smallest [`TwoPartyConfig::finality_margin`] that absorbs every
/// re-delivering reorg on chains of finality depth `depth` at synchrony
/// bound `delta_blocks`: `(depth − 1) + (Δ − 1)`, and zero when no reorg
/// can move a call (`depth ≤ 1`).
///
/// A re-delivered call lands up to `depth − 1` rounds late, which a margin
/// of `depth − 1` absorbs when every party complies. A deviator's last
/// legal call can land later, and the other party can still act on it for
/// `Δ − 1` ticks: when an outage delays Alice's premium to its deadline,
/// Bob answers with his own premium, a reorg re-delivers hers past the
/// padded cut-off, his stands, and settlement pays it to her. The margin
/// must cover both delays.
pub fn min_finality_margin(depth: u32, delta_blocks: u64) -> u64 {
    if depth <= 1 {
        return 0;
    }
    u64::from(depth - 1) + delta_blocks.saturating_sub(1)
}

/// One two-party swap: the configuration, the protocol variant and the
/// chain-realism overlay its setup applies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TwoPartySwap {
    /// Amounts, premiums, Δ and finality margin.
    pub config: TwoPartyConfig,
    /// The hedged (§5.2) or base (§5.1) protocol.
    pub protocol: SwapProtocol,
    /// Finality lag and reorgs (default: none).
    pub realism: SwapRealism,
}

impl TwoPartySwap {
    /// The `protocol` swap of `config`, without chain realism.
    pub fn new(config: TwoPartyConfig, protocol: SwapProtocol) -> Self {
        TwoPartySwap { config, protocol, realism: SwapRealism::default() }
    }

    /// The hedged swap (§5.2) of `config`.
    pub fn hedged(config: TwoPartyConfig) -> Self {
        Self::new(config, SwapProtocol::Hedged)
    }

    /// The unhedged base swap (§5.1) of `config`.
    pub fn base(config: TwoPartyConfig) -> Self {
        Self::new(config, SwapProtocol::Base)
    }

    /// This swap under the given chain-realism overlay.
    pub fn with_realism(mut self, realism: SwapRealism) -> Self {
        self.realism = realism;
        self
    }
}

/// The two-party profile in which Alice plays `alice` and Bob plays `bob`.
pub fn profile(alice: Strategy, bob: Strategy) -> impl Fn(PartyId) -> Strategy {
    move |party| if party == ALICE { alice } else { bob }
}

/// The final state of a two-party swap run.
#[derive(Clone, Debug)]
pub struct SwapCapture {
    payoffs: Payoffs,
    alice_lockup: Lockup,
    bob_lockup: Lockup,
    rounds: usize,
    failed_actions: usize,
}

impl Protocol for TwoPartySwap {
    type Setup = SwapSetup;
    type Capture = SwapCapture;
    type Report = TwoPartyReport;

    fn setup(&self, world: &mut World) -> SwapSetup {
        let (apricot_token, banana_token, apricot_native, banana_native) =
            build_world(world, &self.config);
        let assets = [apricot_token, banana_token, apricot_native, banana_native];
        let secret = Secret::from_seed(0xA11CE);
        let (apricot_contract, banana_contract) =
            publish(world, &self.config, self.protocol, assets, secret.hashlock());
        self.realism.apply(world);
        SwapSetup {
            apricot_token,
            banana_token,
            apricot_native,
            banana_native,
            apricot_contract,
            banana_contract,
            secret,
            before: BalanceSnapshot::capture(world, &[ALICE, BOB], &assets),
        }
    }

    fn script(&self, setup: &SwapSetup, profile: Profile<'_>) -> Vec<ScriptedParty> {
        let config = &self.config;
        let (alice_steps, bob_steps, expected) = match self.protocol {
            SwapProtocol::Hedged => {
                (hedged_alice_steps(setup, config), hedged_bob_steps(setup, config), SCRIPT_STEPS)
            }
            SwapProtocol::Base => {
                (base_alice_steps(setup, config), base_bob_steps(setup, config), BASE_SCRIPT_STEPS)
            }
        };
        debug_assert!(
            alice_steps.len() == expected && bob_steps.len() == expected,
            "script constants must match the scripts so sweeps cover exactly the stop-points"
        );
        vec![
            ScriptedParty::new(ALICE, alice_steps, profile(ALICE)).with_delta(config.delta_blocks),
            ScriptedParty::new(BOB, bob_steps, profile(BOB)).with_delta(config.delta_blocks),
        ]
    }

    fn max_rounds(&self) -> u64 {
        swap_max_rounds(&self.config)
    }

    fn capture(
        &self,
        world: &World,
        setup: &SwapSetup,
        rounds: usize,
        failed_actions: usize,
    ) -> SwapCapture {
        let after = BalanceSnapshot::capture(world, &[ALICE, BOB], &setup.assets());
        let now = world.now();
        let (alice_lockup, bob_lockup) = match self.protocol {
            SwapProtocol::Hedged => {
                let lockup = |addr| {
                    let escrow = hedged_contract(world, addr);
                    lockup_from_times(
                        escrow.escrowed_at(),
                        escrow.principal_settled_at(),
                        escrow.principal_state() == HedgedPrincipalState::Redeemed,
                        now,
                    )
                };
                (lockup(setup.apricot_contract), lockup(setup.banana_contract))
            }
            SwapProtocol::Base => {
                let lockup = |addr| {
                    let escrow = htlc_contract(world, addr);
                    lockup_from_times(
                        escrow.escrowed_at(),
                        escrow.settled_at(),
                        escrow.state() == HtlcState::Redeemed,
                        now,
                    )
                };
                (lockup(setup.apricot_contract), lockup(setup.banana_contract))
            }
        };
        SwapCapture {
            payoffs: Payoffs::between(&setup.before, &after),
            alice_lockup,
            bob_lockup,
            rounds,
            failed_actions,
        }
    }

    fn judge(
        &self,
        setup: &SwapSetup,
        capture: &SwapCapture,
        profile: Profile<'_>,
    ) -> TwoPartyReport {
        let config = &self.config;
        let SwapCapture { payoffs, alice_lockup, bob_lockup, .. } = capture;
        let (alice, bob) = (profile(ALICE), profile(BOB));
        let premiums = [setup.apricot_native, setup.banana_native];
        let alice_premium_payoff = payoffs.total_over(ALICE, &premiums).value();
        let bob_premium_payoff = payoffs.total_over(BOB, &premiums).value();
        let alice_hedge_margin = hedge_margin(
            *alice_lockup,
            payoffs.of(ALICE, setup.banana_token).value(),
            config.bob_tokens,
            alice_premium_payoff,
            config.premium_b,
        );
        let bob_hedge_margin = hedge_margin(
            *bob_lockup,
            payoffs.of(BOB, setup.apricot_token).value(),
            config.alice_tokens,
            bob_premium_payoff,
            config.premium_a,
        );
        TwoPartyReport {
            protocol: self.protocol,
            strategies: (alice, bob),
            swap_completed: alice_lockup.redeemed && bob_lockup.redeemed,
            alice_apricot_payoff: payoffs.of(ALICE, setup.apricot_token).value(),
            alice_banana_payoff: payoffs.of(ALICE, setup.banana_token).value(),
            bob_apricot_payoff: payoffs.of(BOB, setup.apricot_token).value(),
            bob_banana_payoff: payoffs.of(BOB, setup.banana_token).value(),
            alice_premium_payoff,
            bob_premium_payoff,
            alice_lockup: *alice_lockup,
            bob_lockup: *bob_lockup,
            alice_hedge_margin,
            bob_hedge_margin,
            // A deviating party's hedge is vacuously true.
            hedged_for_alice: !alice.is_compliant() || alice_hedge_margin >= 0,
            hedged_for_bob: !bob.is_compliant() || bob_hedge_margin >= 0,
            failed_actions: capture.failed_actions,
            rounds: capture.rounds,
            payoffs: payoffs.clone(),
        }
    }
}

/// Builds the swap's world (contracts published with their real deadline
/// parameters) and compliant scripted parties without executing a single
/// round; see [`Protocol::static_setup`].
pub fn swap_static_setup(
    config: &TwoPartyConfig,
    protocol: SwapProtocol,
) -> (World, Vec<ScriptedParty>) {
    TwoPartySwap::new(config.clone(), protocol).static_setup()
}

/// The round budget a two-party run gets before the driver declares it
/// stuck: the last padded deadline plus two propagation rounds of slack.
/// Also the horizon for [`SwapRealism`] reorg schedules — a reorg at or
/// beyond this round can never fire within the run.
pub fn swap_max_rounds(config: &TwoPartyConfig) -> u64 {
    // Reduces to the long-standing `8Δ + 4` bound when both chains share
    // the global Δ and the margin is zero, keeping homogeneous runs
    // bit-identical.
    config.padded(config.hedged_schedule().redeem_apricot).0
        + 2 * config.delta_a().max(config.delta_b())
        + 4
}

fn lockup_from_times(
    escrowed_at: Option<Time>,
    settled_at: Option<Time>,
    redeemed: bool,
    now: Time,
) -> Lockup {
    match escrowed_at {
        None => Lockup { principal_blocks: 0, redeemed: false },
        Some(start) => {
            let end = settled_at.unwrap_or(now);
            Lockup { principal_blocks: end - start, redeemed }
        }
    }
}

/// The hedge margin of one side of the swap: how far above (or, negative,
/// below) the hedged condition's threshold the run left them. The side is
/// hedged iff the margin is non-negative: either their escrow was redeemed
/// and they received the counterparty's principal (and lost no premium),
/// or their escrow was returned / never made and their premium payoff
/// covers the agreed compensation (zero when nothing was locked up).
fn hedge_margin(
    lockup: Lockup,
    counter_asset_gain: i128,
    counter_asset_expected: Amount,
    premium_payoff: i128,
    compensation: Amount,
) -> i128 {
    if lockup.redeemed {
        (counter_asset_gain - counter_asset_expected.value() as i128).min(premium_payoff)
    } else if lockup.principal_blocks > 0 {
        premium_payoff - compensation.value() as i128
    } else {
        premium_payoff
    }
}

/// Runs one `(alice, bob)` profile of the `protocol` swap of `config`
/// through the [`Prefix`] in `cache`, recording it on first use. The cache
/// belongs to one `(config, protocol)` pair.
pub fn run_swap_shared(
    world: &mut World,
    config: &TwoPartyConfig,
    protocol: SwapProtocol,
    alice: Strategy,
    bob: Strategy,
    cache: &mut Option<Prefix<TwoPartySwap>>,
) -> TwoPartyReport {
    cache
        .get_or_insert_with(|| Prefix::record(TwoPartySwap::new(config.clone(), protocol), world))
        .run(&profile(alice, bob), world)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> TwoPartyConfig {
        TwoPartyConfig::default()
    }

    fn run_with_realism(
        config: &TwoPartyConfig,
        alice: Strategy,
        bob: Strategy,
        realism: &SwapRealism,
    ) -> TwoPartyReport {
        TwoPartySwap::hedged(config.clone())
            .with_realism(realism.clone())
            .run(&profile(alice, bob), &mut World::new(1))
    }

    #[test]
    fn hedged_compliant_run_swaps_and_refunds_premiums() {
        let report = TwoPartySwap::hedged(config())
            .run(&profile(Strategy::compliant(), Strategy::compliant()), &mut World::new(1));
        assert!(report.swap_completed);
        assert_eq!(report.alice_apricot_payoff, -100);
        assert_eq!(report.alice_banana_payoff, 100);
        assert_eq!(report.bob_apricot_payoff, 100);
        assert_eq!(report.bob_banana_payoff, -100);
        assert_eq!(report.alice_premium_payoff, 0);
        assert_eq!(report.bob_premium_payoff, 0);
        assert!(report.hedged_for_alice && report.hedged_for_bob);
        assert_eq!(report.failed_actions, 0);
        assert!(report.payoffs.conserved());
        assert!(report.alice_lockup.redeemed && report.bob_lockup.redeemed);
    }

    #[test]
    fn hedged_bob_reneging_after_premiums_pays_alice() {
        // Bob deposits his premium but never escrows (stop after 1 step).
        let report = TwoPartySwap::hedged(config())
            .run(&profile(Strategy::compliant(), Strategy::stop_after(1)), &mut World::new(1));
        assert!(!report.swap_completed);
        // Alice escrowed, was not redeemed, and collects p_b = 2.
        assert_eq!(report.alice_apricot_payoff, 0, "principal refunded");
        assert_eq!(report.alice_premium_payoff, 2);
        assert_eq!(report.bob_premium_payoff, -2);
        assert!(report.hedged_for_alice);
        assert!(report.payoffs.conserved());
    }

    #[test]
    fn hedged_alice_reneging_after_bob_escrows_pays_bob() {
        // Alice stops after escrowing (never reveals the secret).
        let report = TwoPartySwap::hedged(config())
            .run(&profile(Strategy::stop_after(2), Strategy::compliant()), &mut World::new(1));
        assert!(!report.swap_completed);
        // Bob nets +p_a = +2, Alice nets -p_a = -2 (she pays p_a+p_b, receives p_b).
        assert_eq!(report.bob_premium_payoff, 2);
        assert_eq!(report.alice_premium_payoff, -2);
        assert_eq!(report.bob_banana_payoff, 0, "Bob's principal refunded");
        assert!(report.hedged_for_bob);
        assert!(report.payoffs.conserved());
    }

    #[test]
    fn hedged_bob_never_participating_costs_nobody_anything() {
        let report = TwoPartySwap::hedged(config())
            .run(&profile(Strategy::compliant(), Strategy::stop_after(0)), &mut World::new(1));
        assert!(!report.swap_completed);
        assert_eq!(report.alice_premium_payoff, 0);
        assert_eq!(report.bob_premium_payoff, 0);
        assert_eq!(report.alice_apricot_payoff, 0);
        assert!(report.hedged_for_alice);
        assert_eq!(report.alice_lockup.principal_blocks, 0, "Alice never escrows her principal");
    }

    #[test]
    fn base_protocol_leaves_alice_locked_and_uncompensated() {
        // Bob walks away immediately after Alice escrows (claim C1).
        let report = TwoPartySwap::base(config())
            .run(&profile(Strategy::compliant(), Strategy::stop_after(0)), &mut World::new(1));
        assert!(!report.swap_completed);
        assert_eq!(report.alice_apricot_payoff, 0, "refunded after the timelock");
        assert_eq!(report.alice_premium_payoff, 0, "no compensation in the base protocol");
        assert!(!report.hedged_for_alice, "base protocol is not hedged");
        // Locked for the full 3Δ = 6 blocks.
        assert_eq!(report.alice_lockup.principal_blocks, 3 * config().delta_blocks);
    }

    #[test]
    fn base_protocol_leaves_bob_locked_when_alice_aborts() {
        // Alice escrows but never redeems Bob's escrow (claim C1, second half).
        let report = TwoPartySwap::base(config())
            .run(&profile(Strategy::stop_after(1), Strategy::compliant()), &mut World::new(1));
        assert!(!report.swap_completed);
        assert_eq!(report.bob_banana_payoff, 0, "refunded after the timelock");
        assert!(!report.hedged_for_bob);
        assert!(report.bob_lockup.principal_blocks > 0);
        assert!(report.bob_lockup.principal_blocks < 3 * config().delta_blocks);
    }

    #[test]
    fn base_compliant_run_completes() {
        let report = TwoPartySwap::base(config())
            .run(&profile(Strategy::compliant(), Strategy::compliant()), &mut World::new(1));
        assert!(report.swap_completed);
        assert_eq!(report.alice_banana_payoff, 100);
        assert_eq!(report.bob_apricot_payoff, 100);
        assert_eq!(report.failed_actions, 0);
        assert!(report.hedged_for_alice && report.hedged_for_bob);
    }

    #[test]
    fn all_unilateral_deviations_keep_compliant_parties_hedged() {
        // Sweep every deviation point for each party in the hedged protocol.
        for k in 0..4 {
            let report = TwoPartySwap::hedged(config())
                .run(&profile(Strategy::compliant(), Strategy::stop_after(k)), &mut World::new(1));
            assert!(report.hedged_for_alice, "Alice must be hedged when Bob stops after {k}");
            assert!(report.payoffs.conserved());
            let report = TwoPartySwap::hedged(config())
                .run(&profile(Strategy::stop_after(k), Strategy::compliant()), &mut World::new(1));
            assert!(report.hedged_for_bob, "Bob must be hedged when Alice stops after {k}");
            assert!(report.payoffs.conserved());
        }
    }

    #[test]
    fn larger_delta_scales_lockup_durations() {
        let mut cfg = config();
        cfg.delta_blocks = 6;
        let report = TwoPartySwap::base(cfg.clone())
            .run(&profile(Strategy::compliant(), Strategy::stop_after(0)), &mut World::new(1));
        assert_eq!(report.alice_lockup.principal_blocks, 18);
    }

    #[test]
    fn hedged_schedule_reduces_to_the_paper_ladder_at_equal_delta() {
        let sched = config().hedged_schedule();
        let d = config().delta_blocks;
        assert_eq!(sched.premium_banana, Time(d));
        assert_eq!(sched.premium_apricot, Time(2 * d));
        assert_eq!(sched.escrow_apricot, Time(3 * d));
        assert_eq!(sched.escrow_banana, Time(4 * d));
        assert_eq!(sched.redeem_banana, Time(5 * d));
        assert_eq!(sched.redeem_apricot, Time(6 * d));
        assert_eq!(config().base_timelocks(), (Time(2 * d), Time(3 * d)));
    }

    #[test]
    fn heterogeneous_delta_stretches_the_ladder_per_chain() {
        let cfg = TwoPartyConfig { delta_apricot: 1, delta_banana: 3, ..config() };
        let sched = cfg.hedged_schedule();
        // t1 = Δ_b, then +Δ_a, +Δ_a, +Δ_b, +Δ_b, +Δ_a.
        assert_eq!(sched.premium_banana, Time(3));
        assert_eq!(sched.premium_apricot, Time(4));
        assert_eq!(sched.escrow_apricot, Time(5));
        assert_eq!(sched.escrow_banana, Time(8));
        assert_eq!(sched.redeem_banana, Time(11));
        assert_eq!(sched.redeem_apricot, Time(12));
        assert_eq!(cfg.base_timelocks(), (Time(4), Time(5)));
    }

    #[test]
    fn heterogeneous_delta_swaps_complete_and_stay_hedged() {
        for (da, db) in [(1, 3), (3, 1), (2, 5)] {
            let cfg = TwoPartyConfig { delta_apricot: da, delta_banana: db, ..config() };
            let report = TwoPartySwap::hedged(cfg.clone())
                .run(&profile(Strategy::compliant(), Strategy::compliant()), &mut World::new(1));
            assert!(report.swap_completed, "compliant hedged swap completes at Δ=({da},{db})");
            assert!(report.hedged_for_alice && report.hedged_for_bob);
            assert!(report.payoffs.conserved());
            // Unilateral walk-aways stay compensated under skewed Δ too.
            for k in 0..4 {
                let r = TwoPartySwap::hedged(cfg.clone()).run(
                    &profile(Strategy::compliant(), Strategy::stop_after(k)),
                    &mut World::new(1),
                );
                assert!(r.hedged_for_alice, "Alice hedged at Δ=({da},{db}), Bob stops after {k}");
                let r = TwoPartySwap::hedged(cfg.clone()).run(
                    &profile(Strategy::stop_after(k), Strategy::compliant()),
                    &mut World::new(1),
                );
                assert!(r.hedged_for_bob, "Bob hedged at Δ=({da},{db}), Alice stops after {k}");
            }
        }
    }

    #[test]
    fn default_realism_reproduces_the_plain_run() {
        let plain = TwoPartySwap::hedged(config())
            .run(&profile(Strategy::compliant(), Strategy::compliant()), &mut World::new(1));
        // Instant finality and a reorg past the horizon change nothing.
        let idle = SwapRealism {
            apricot_depth: 0,
            banana_depth: 0,
            reorgs: vec![chainsim::ReorgEvent {
                chain: BANANA,
                at_round: swap_max_rounds(&config()),
                depth: 1,
                policy: chainsim::ReorgPolicy::Redeliver,
            }],
        };
        for realism in [SwapRealism::default(), idle] {
            let overlay =
                run_with_realism(&config(), Strategy::compliant(), Strategy::compliant(), &realism);
            assert_eq!(format!("{plain:?}"), format!("{overlay:?}"));
        }
    }

    /// Runs `swap` under `profile` in a bare round loop that skips no round.
    fn run_every_round(swap: &TwoPartySwap, profile: Profile<'_>) -> TwoPartyReport {
        let mut world = World::new(1);
        let setup = swap.setup(&mut world);
        let mut parties = swap.script(&setup, profile);
        let (mut rounds, mut failed) = (0, 0);
        while rounds < swap.max_rounds() as usize && !parties.iter().all(chainsim::Actor::done) {
            failed += chainsim::run_round(&mut world, &mut parties).failed;
            rounds += 1;
        }
        let capture = swap.capture(&world, &setup, rounds, failed);
        swap.judge(&setup, &capture, profile)
    }

    #[test]
    fn skipped_pure_wait_rounds_change_no_report_under_windows_or_reorgs() {
        let space: Vec<Strategy> = strategy_space().into_iter().step_by(13).collect();
        // A skip that ignored the reorg schedule turned this swap (margin 0,
        // a depth-2 reorg of the apricot chain at round 5) into an
        // incomplete 13-round run with Bob 100 below his hedge.
        let crash = Strategy::stop_after(3).with_fault(crate::script::Fault::Crash { step: 1 });
        assert!(space.contains(&crash));
        let reorg = |chain, at_round, depth| chainsim::ReorgEvent {
            chain,
            at_round,
            depth,
            policy: chainsim::ReorgPolicy::Redeliver,
        };
        let windows = SwapRealism { apricot_depth: 2, banana_depth: 2, reorgs: Vec::new() };
        let pinned = TwoPartySwap::hedged(config())
            .with_realism(SwapRealism { reorgs: vec![reorg(APRICOT, 5, 2)], ..windows.clone() })
            .run(&profile(crash, Strategy::compliant()), &mut World::new(1));
        assert!(pinned.swap_completed);
        assert_eq!((pinned.rounds, pinned.failed_actions, pinned.bob_hedge_margin), (10, 0, 0));

        let mut world = World::new(1);
        for margin in 0..=2 {
            let config = TwoPartyConfig { finality_margin: margin, ..config() };
            // No overlay, where rounds are skipped, then windows with no
            // reorg or one, where none may be.
            let mut overlays = vec![SwapRealism::default(), windows.clone()];
            for chain in [APRICOT, BANANA] {
                for at_round in 1..swap_max_rounds(&config) {
                    for depth in 1..=2 {
                        let reorgs = vec![reorg(chain, at_round, depth)];
                        overlays.push(SwapRealism { reorgs, ..windows.clone() });
                    }
                }
            }
            for realism in overlays {
                let swap = TwoPartySwap::hedged(config.clone()).with_realism(realism);
                for &alice in &space {
                    for &bob in &space {
                        let profile = profile(alice, bob);
                        assert_eq!(
                            format!("{:?}", swap.run(&profile, &mut world)),
                            format!("{:?}", run_every_round(&swap, &profile)),
                            "margin {margin}, {:?}, {alice} vs {bob}",
                            swap.realism
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn min_finality_margin_adds_one_delta_of_reaction_time() {
        assert_eq!(min_finality_margin(0, 3), 0);
        assert_eq!(min_finality_margin(1, 3), 0, "a depth-1 reorg moves no call");
        assert_eq!(min_finality_margin(2, 1), 1);
        assert_eq!(min_finality_margin(2, 2), 2);
        assert_eq!(min_finality_margin(3, 3), 4);
    }

    #[test]
    fn redeliver_reorgs_with_margin_are_absorbed_by_compliant_runs() {
        // Finality lag 2 on both chains, margin depth − 1 = 1, and a
        // redelivering reorg in every protocol round on alternating chains:
        // the padded deadlines absorb every re-delivery, so the swap still
        // completes and both parties stay hedged.
        let cfg = TwoPartyConfig { finality_margin: 1, ..config() };
        let mut realism = SwapRealism { apricot_depth: 2, banana_depth: 2, reorgs: Vec::new() };
        for round in 0..20 {
            realism.reorgs.push(chainsim::ReorgEvent {
                chain: chainsim::ChainId((round % 2) as u32),
                at_round: round,
                depth: 2,
                policy: chainsim::ReorgPolicy::Redeliver,
            });
        }
        for (alice, bob) in [
            (Strategy::compliant(), Strategy::compliant()),
            (Strategy::compliant().late(), Strategy::compliant()),
            (Strategy::compliant(), Strategy::compliant().late()),
        ] {
            let report = run_with_realism(&cfg, alice, bob, &realism);
            assert!(report.swap_completed, "reorgs within the margin cannot break the swap");
            assert!(report.hedged_for_alice && report.hedged_for_bob);
            assert!(report.payoffs.conserved());
        }
    }

    #[test]
    fn zero_margin_reorg_swallows_a_procrastinated_redeem() {
        // The sore-loser-by-reorg scenario: with no finality margin, a
        // depth-2 redelivering reorg can push a procrastinating (but fully
        // compliant) party's last-tick call past its unpadded deadline, so
        // the swap dies even though nobody deviated. Scan every candidate
        // reorg round: at least one must break the zero-margin run, and a
        // `finality_margin` of depth − 1 must absorb every single one.
        let cfg = config();
        let horizon = swap_max_rounds(&cfg);
        let realism_at = |at_round: u64| SwapRealism {
            apricot_depth: 0,
            banana_depth: 2,
            reorgs: vec![chainsim::ReorgEvent {
                chain: chainsim::ChainId(1),
                at_round,
                depth: 2,
                policy: chainsim::ReorgPolicy::Redeliver,
            }],
        };
        let mut violating_rounds = Vec::new();
        for at_round in 1..horizon {
            let report = run_with_realism(
                &cfg,
                Strategy::compliant().late(),
                Strategy::compliant().late(),
                &realism_at(at_round),
            );
            assert!(report.payoffs.conserved());
            if !(report.swap_completed && report.hedged_for_alice && report.hedged_for_bob) {
                violating_rounds.push(at_round);
            }
        }
        assert!(
            !violating_rounds.is_empty(),
            "some reorg round must swallow a last-tick call at margin 0"
        );
        // The same schedules with the margin keep the theorem intact: every
        // previously violating reorg round now completes, hedged for both.
        let fixed_cfg = TwoPartyConfig { finality_margin: 1, ..cfg };
        for at_round in violating_rounds {
            let fixed = run_with_realism(
                &fixed_cfg,
                Strategy::compliant().late(),
                Strategy::compliant().late(),
                &realism_at(at_round),
            );
            assert!(
                fixed.swap_completed,
                "a finality margin of depth − 1 absorbs the reorg at round {at_round}"
            );
            assert!(fixed.hedged_for_alice && fixed.hedged_for_bob);
            assert!(fixed.payoffs.conserved());
        }
    }
}
