//! The hedged two-party escrow contract (§5.2 of the paper).

use std::any::Any;

use chainsim::{
    Amount, AssetId, CallEnv, Contract, ContractError, Disposition, PartyId, StateMachine,
    StateSpec, Time, TimeWindow, TransitionSpec,
};
use cryptosim::{Hashlock, Secret};
use serde::{Deserialize, Serialize};

/// Lifecycle of the premium slot of a [`HedgedEscrow`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum HedgedPremiumState {
    /// No premium has been deposited yet.
    NotDeposited,
    /// The redeemer's premium is held by the contract.
    Held,
    /// The premium was refunded to the redeemer.
    Refunded,
    /// The premium was paid to the escrower as lock-up compensation.
    PaidToEscrower,
}

/// Lifecycle of the principal slot of a [`HedgedEscrow`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum HedgedPrincipalState {
    /// The principal has not been escrowed.
    NotEscrowed,
    /// The principal is held by the contract.
    Held,
    /// The redeemer presented the secret and received the principal.
    Redeemed,
    /// The principal was refunded to the escrower after the timelock.
    Refunded,
}

/// Construction parameters for a [`HedgedEscrow`].
///
/// Using Figure 1's banana-chain contract as the example: the *escrower* is
/// Bob (he escrows his banana tokens), the *redeemer* is Alice (she deposits
/// the premium `p_a + p_b` and later redeems Bob's tokens by revealing the
/// secret).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct HedgedEscrowParams {
    /// The party that escrows the principal.
    pub escrower: PartyId,
    /// The counterparty: deposits the premium and redeems with the secret.
    pub redeemer: PartyId,
    /// Asset class of the principal.
    pub principal_asset: AssetId,
    /// Amount of the principal.
    pub principal_amount: Amount,
    /// Asset class of the premium (the chain's native currency).
    pub premium_asset: AssetId,
    /// Amount of the premium the redeemer must deposit.
    pub premium_amount: Amount,
    /// The hashlock guarding redemption.
    pub hashlock: Hashlock,
    /// Deadline for the redeemer's premium deposit.
    pub premium_deadline: Time,
    /// Deadline for the escrower's principal escrow (`t_{b,e}` / `t_{a,e}`).
    pub escrow_deadline: Time,
    /// The principal's timelock (`t_A` / `t_B`): redemption must happen
    /// strictly before this height.
    pub redeem_deadline: Time,
}

/// Messages accepted by a [`HedgedEscrow`].
#[derive(Clone, Debug)]
pub enum HedgedEscrowMsg {
    /// The redeemer deposits the premium.
    DepositPremium,
    /// The escrower escrows the principal (allowed only after the premium is
    /// in place, which is the order the protocol prescribes).
    EscrowPrincipal,
    /// The redeemer redeems the principal by revealing the secret; the
    /// premium is refunded to the redeemer in the same step.
    Redeem {
        /// The hashlock preimage.
        secret: Secret,
    },
    /// Anyone applies whatever timeout rules are currently due: refund the
    /// premium if the principal was never escrowed, or refund the principal
    /// and award the premium to the escrower if redemption timed out.
    Settle,
}

/// The §5.2 hedged escrow: a principal slot plus a premium slot.
///
/// Rules enforced by the contract (all decidable from chain-local state):
///
/// * the premium must be deposited by the redeemer before
///   `premium_deadline`;
/// * the principal must be escrowed by the escrower before
///   `escrow_deadline`, and only once the premium is held;
/// * if the principal is **redeemed** before `redeem_deadline`, the premium
///   is refunded to the redeemer;
/// * if the principal was escrowed but **not** redeemed by
///   `redeem_deadline`, the principal returns to the escrower and the
///   premium is paid to the escrower as compensation;
/// * if the principal was **never** escrowed by `escrow_deadline`, the
///   premium is refunded to the redeemer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HedgedEscrow {
    params: HedgedEscrowParams,
    premium: HedgedPremiumState,
    principal: HedgedPrincipalState,
    escrowed_at: Option<Time>,
    principal_settled_at: Option<Time>,
    revealed_secret: Option<Secret>,
}

impl HedgedEscrow {
    /// Creates a new, unfunded hedged escrow.
    pub fn new(params: HedgedEscrowParams) -> Self {
        HedgedEscrow {
            params,
            premium: HedgedPremiumState::NotDeposited,
            principal: HedgedPrincipalState::NotEscrowed,
            escrowed_at: None,
            principal_settled_at: None,
            revealed_secret: None,
        }
    }

    /// The construction parameters.
    pub fn params(&self) -> &HedgedEscrowParams {
        &self.params
    }

    /// The premium slot's state.
    pub fn premium_state(&self) -> HedgedPremiumState {
        self.premium
    }

    /// The principal slot's state.
    pub fn principal_state(&self) -> HedgedPrincipalState {
        self.principal
    }

    /// The secret revealed by a successful redemption, if any.
    pub fn revealed_secret(&self) -> Option<&Secret> {
        self.revealed_secret.as_ref()
    }

    /// The height at which the principal was escrowed, if it has been.
    pub fn escrowed_at(&self) -> Option<Time> {
        self.escrowed_at
    }

    /// The height at which the principal was redeemed or refunded.
    pub fn principal_settled_at(&self) -> Option<Time> {
        self.principal_settled_at
    }

    fn deposit_premium(&mut self, env: &mut CallEnv<'_>) -> Result<(), ContractError> {
        if env.caller() != self.params.redeemer {
            return Err(ContractError::Unauthorised { caller: env.caller() });
        }
        if self.premium != HedgedPremiumState::NotDeposited {
            return Err(ContractError::invalid_state("premium already deposited"));
        }
        env.ensure_before(self.params.premium_deadline)?;
        env.debit_caller(self.params.premium_asset, self.params.premium_amount)?;
        self.premium = HedgedPremiumState::Held;
        Ok(())
    }

    fn escrow_principal(&mut self, env: &mut CallEnv<'_>) -> Result<(), ContractError> {
        if env.caller() != self.params.escrower {
            return Err(ContractError::Unauthorised { caller: env.caller() });
        }
        if self.principal != HedgedPrincipalState::NotEscrowed {
            return Err(ContractError::invalid_state("principal already escrowed"));
        }
        if self.premium != HedgedPremiumState::Held {
            return Err(ContractError::invalid_state(
                "premium must be deposited before the principal is escrowed",
            ));
        }
        env.ensure_before(self.params.escrow_deadline)?;
        env.debit_caller(self.params.principal_asset, self.params.principal_amount)?;
        self.principal = HedgedPrincipalState::Held;
        self.escrowed_at = Some(env.now());
        Ok(())
    }

    fn redeem(&mut self, env: &mut CallEnv<'_>, secret: &Secret) -> Result<(), ContractError> {
        if env.caller() != self.params.redeemer {
            return Err(ContractError::Unauthorised { caller: env.caller() });
        }
        if self.principal != HedgedPrincipalState::Held {
            return Err(ContractError::invalid_state("no escrowed principal to redeem"));
        }
        env.ensure_before(self.params.redeem_deadline)?;
        if !self.params.hashlock.matches(secret) {
            return Err(ContractError::HashlockMismatch);
        }
        env.pay_out(
            self.params.redeemer,
            self.params.principal_asset,
            self.params.principal_amount,
        )?;
        self.principal = HedgedPrincipalState::Redeemed;
        self.principal_settled_at = Some(env.now());
        self.revealed_secret = Some(secret.clone());
        if self.premium == HedgedPremiumState::Held {
            env.pay_out(
                self.params.redeemer,
                self.params.premium_asset,
                self.params.premium_amount,
            )?;
            self.premium = HedgedPremiumState::Refunded;
        }
        env.charge_note();
        Ok(())
    }

    fn settle(&mut self, env: &mut CallEnv<'_>) -> Result<(), ContractError> {
        let mut acted = false;

        // Premium refund: the principal was never escrowed in time.
        if self.premium == HedgedPremiumState::Held
            && self.principal == HedgedPrincipalState::NotEscrowed
            && env.now().has_reached(self.params.escrow_deadline)
        {
            env.pay_out(
                self.params.redeemer,
                self.params.premium_asset,
                self.params.premium_amount,
            )?;
            self.premium = HedgedPremiumState::Refunded;
            env.charge_note();
            acted = true;
        }

        // Redemption timeout: principal refunded, premium compensates escrower.
        if self.principal == HedgedPrincipalState::Held
            && env.now().has_reached(self.params.redeem_deadline)
        {
            env.pay_out(
                self.params.escrower,
                self.params.principal_asset,
                self.params.principal_amount,
            )?;
            self.principal = HedgedPrincipalState::Refunded;
            self.principal_settled_at = Some(env.now());
            if self.premium == HedgedPremiumState::Held {
                env.pay_out(
                    self.params.escrower,
                    self.params.premium_asset,
                    self.params.premium_amount,
                )?;
                self.premium = HedgedPremiumState::PaidToEscrower;
            }
            env.charge_note();
            acted = true;
        }

        if acted {
            Ok(())
        } else {
            Err(ContractError::invalid_state("nothing to settle yet"))
        }
    }
}

impl Contract for HedgedEscrow {
    fn type_name(&self) -> &'static str {
        "HedgedEscrow"
    }

    fn clone_box(&self) -> Box<dyn Contract> {
        Box::new(self.clone())
    }

    fn handle(&mut self, env: &mut CallEnv<'_>, msg: &dyn Any) -> Result<(), ContractError> {
        let msg = msg.downcast_ref::<HedgedEscrowMsg>().ok_or(ContractError::UnsupportedMessage)?;
        match msg {
            HedgedEscrowMsg::DepositPremium => self.deposit_premium(env),
            HedgedEscrowMsg::EscrowPrincipal => self.escrow_principal(env),
            HedgedEscrowMsg::Redeem { secret } => self.redeem(env, secret),
            HedgedEscrowMsg::Settle => self.settle(env),
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    // Custody spec. One composite machine: the premium is deposited first,
    // the principal only on top of a held premium (`escrow_principal`
    // requires `premium == Held`), so the `Escrowed` state always holds
    // both funds and every exit edge disposes of both. Windows mirror the
    // guards above: deposits via `ensure_before`, the two settle branches
    // via the `has_reached` tests in `settle`.
    fn state_spec(&self) -> Option<StateSpec> {
        Some(
            StateSpec::new(self.type_name()).machine(
                StateMachine::new("custody", "Start")
                    .fund("premium")
                    .fund("principal")
                    .transition(
                        TransitionSpec::new(
                            "DepositPremium",
                            "Start",
                            "PremiumHeld",
                            TimeWindow::before(self.params.premium_deadline),
                        )
                        .deposits("premium"),
                    )
                    .transition(
                        TransitionSpec::new(
                            "EscrowPrincipal",
                            "PremiumHeld",
                            "Escrowed",
                            TimeWindow::before(self.params.escrow_deadline),
                        )
                        .deposits("principal"),
                    )
                    .transition(
                        TransitionSpec::new(
                            "Redeem",
                            "Escrowed",
                            "Redeemed",
                            TimeWindow::before(self.params.redeem_deadline),
                        )
                        .releases("principal", Disposition::Redeem)
                        .releases("premium", Disposition::Refund),
                    )
                    .transition(
                        TransitionSpec::new(
                            "SettleUnescrowed",
                            "PremiumHeld",
                            "SettledUnescrowed",
                            TimeWindow::from(self.params.escrow_deadline),
                        )
                        .releases("premium", Disposition::Refund),
                    )
                    .transition(
                        TransitionSpec::new(
                            "SettleTimeout",
                            "Escrowed",
                            "TimedOut",
                            TimeWindow::from(self.params.redeem_deadline),
                        )
                        .releases("principal", Disposition::Refund)
                        .releases("premium", Disposition::Forfeit),
                    ),
            ),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chainsim::{AccountRef, ContractAddr, World};

    // Roles as on the banana chain of Figure 1: Bob escrows, Alice redeems.
    const ALICE: PartyId = PartyId(0);
    const BOB: PartyId = PartyId(1);

    struct Fixture {
        world: World,
        addr: ContractAddr,
        token: AssetId,
        native: AssetId,
        secret: Secret,
    }

    /// Banana-chain contract with Δ = 1 block: premium deadline 1, escrow
    /// deadline 4, redeem deadline 5 (§5.2 timeouts).
    fn setup() -> Fixture {
        let mut world = World::new(1);
        let chain = world.add_chain("banana");
        let native = world.chain(chain).native_asset();
        let token = world.register_asset("banana-token");
        world.chain_mut(chain).mint(BOB, token, Amount::new(100));
        world.chain_mut(chain).mint(ALICE, native, Amount::new(10));
        let secret = Secret::from_seed(7);
        let escrow = HedgedEscrow::new(HedgedEscrowParams {
            escrower: BOB,
            redeemer: ALICE,
            principal_asset: token,
            principal_amount: Amount::new(100),
            premium_asset: native,
            premium_amount: Amount::new(3), // p_a + p_b
            hashlock: secret.hashlock(),
            premium_deadline: Time(1),
            escrow_deadline: Time(4),
            redeem_deadline: Time(5),
        });
        let addr = world.publish(chain, Box::new(escrow));
        Fixture { world, addr, token, native, secret }
    }

    fn contract(f: &Fixture) -> &HedgedEscrow {
        f.world.chain(f.addr.chain).contract_as::<HedgedEscrow>(f.addr.contract).unwrap()
    }

    fn balance(f: &Fixture, party: PartyId, asset: AssetId) -> Amount {
        f.world.chain(f.addr.chain).balance(AccountRef::Party(party), asset)
    }

    #[test]
    fn happy_path_premium_escrow_redeem() {
        let mut f = setup();
        f.world.call(ALICE, f.addr, &HedgedEscrowMsg::DepositPremium).unwrap();
        assert_eq!(contract(&f).premium_state(), HedgedPremiumState::Held);
        f.world.advance_blocks(1);
        f.world.call(BOB, f.addr, &HedgedEscrowMsg::EscrowPrincipal).unwrap();
        assert_eq!(contract(&f).principal_state(), HedgedPrincipalState::Held);
        f.world.advance_blocks(1);
        let secret = f.secret.clone();
        f.world.call(ALICE, f.addr, &HedgedEscrowMsg::Redeem { secret }).unwrap();
        // Alice has the principal, her premium back, Bob has neither.
        assert_eq!(balance(&f, ALICE, f.token), Amount::new(100));
        assert_eq!(balance(&f, ALICE, f.native), Amount::new(10));
        assert_eq!(contract(&f).premium_state(), HedgedPremiumState::Refunded);
        assert_eq!(contract(&f).principal_state(), HedgedPrincipalState::Redeemed);
        assert!(contract(&f).revealed_secret().is_some());
    }

    #[test]
    fn premium_refunded_if_principal_never_escrowed() {
        // Bob is the sore loser: he never escrows after Alice's premium.
        let mut f = setup();
        f.world.call(ALICE, f.addr, &HedgedEscrowMsg::DepositPremium).unwrap();
        // Cannot settle before the escrow deadline.
        assert!(f.world.call(ALICE, f.addr, &HedgedEscrowMsg::Settle).is_err());
        f.world.advance_blocks(4);
        f.world.call(ALICE, f.addr, &HedgedEscrowMsg::Settle).unwrap();
        assert_eq!(contract(&f).premium_state(), HedgedPremiumState::Refunded);
        assert_eq!(balance(&f, ALICE, f.native), Amount::new(10));
    }

    #[test]
    fn premium_paid_to_escrower_if_redemption_times_out() {
        // Alice is the sore loser: Bob escrows but Alice never reveals.
        let mut f = setup();
        f.world.call(ALICE, f.addr, &HedgedEscrowMsg::DepositPremium).unwrap();
        f.world.advance_blocks(1);
        f.world.call(BOB, f.addr, &HedgedEscrowMsg::EscrowPrincipal).unwrap();
        f.world.advance_blocks(4); // now = 5 = redeem deadline
        f.world.call(BOB, f.addr, &HedgedEscrowMsg::Settle).unwrap();
        assert_eq!(contract(&f).principal_state(), HedgedPrincipalState::Refunded);
        assert_eq!(contract(&f).premium_state(), HedgedPremiumState::PaidToEscrower);
        // Bob got his tokens back plus Alice's premium as compensation.
        assert_eq!(balance(&f, BOB, f.token), Amount::new(100));
        assert_eq!(balance(&f, BOB, f.native), Amount::new(3));
        assert_eq!(balance(&f, ALICE, f.native), Amount::new(7));
    }

    #[test]
    fn redeem_rejected_after_deadline_and_settle_still_compensates() {
        let mut f = setup();
        f.world.call(ALICE, f.addr, &HedgedEscrowMsg::DepositPremium).unwrap();
        f.world.advance_blocks(1);
        f.world.call(BOB, f.addr, &HedgedEscrowMsg::EscrowPrincipal).unwrap();
        f.world.advance_blocks(4);
        let secret = f.secret.clone();
        assert!(f.world.call(ALICE, f.addr, &HedgedEscrowMsg::Redeem { secret }).is_err());
        f.world.call(ALICE, f.addr, &HedgedEscrowMsg::Settle).unwrap();
        assert_eq!(contract(&f).premium_state(), HedgedPremiumState::PaidToEscrower);
    }

    #[test]
    fn principal_cannot_be_escrowed_without_premium() {
        let mut f = setup();
        let err = f.world.call(BOB, f.addr, &HedgedEscrowMsg::EscrowPrincipal).unwrap_err();
        assert!(err.to_string().contains("premium must be deposited"));
    }

    #[test]
    fn premium_deposit_respects_deadline_and_role() {
        let mut f = setup();
        // Wrong party.
        assert!(f.world.call(BOB, f.addr, &HedgedEscrowMsg::DepositPremium).is_err());
        // Too late.
        f.world.advance_blocks(1);
        assert!(f.world.call(ALICE, f.addr, &HedgedEscrowMsg::DepositPremium).is_err());
        assert_eq!(contract(&f).premium_state(), HedgedPremiumState::NotDeposited);
    }

    #[test]
    fn escrow_respects_deadline() {
        let mut f = setup();
        f.world.call(ALICE, f.addr, &HedgedEscrowMsg::DepositPremium).unwrap();
        f.world.advance_blocks(4);
        assert!(f.world.call(BOB, f.addr, &HedgedEscrowMsg::EscrowPrincipal).is_err());
    }

    #[test]
    fn redeem_rejects_wrong_secret_and_wrong_caller() {
        let mut f = setup();
        f.world.call(ALICE, f.addr, &HedgedEscrowMsg::DepositPremium).unwrap();
        f.world.advance_blocks(1);
        f.world.call(BOB, f.addr, &HedgedEscrowMsg::EscrowPrincipal).unwrap();
        let wrong = Secret::from_seed(1);
        assert!(f.world.call(ALICE, f.addr, &HedgedEscrowMsg::Redeem { secret: wrong }).is_err());
        let secret = f.secret.clone();
        assert!(f.world.call(BOB, f.addr, &HedgedEscrowMsg::Redeem { secret }).is_err());
    }

    #[test]
    fn settle_is_rejected_when_nothing_is_due() {
        let mut f = setup();
        assert!(f.world.call(ALICE, f.addr, &HedgedEscrowMsg::Settle).is_err());
        // Even after deadlines, settling twice only works once.
        f.world.call(ALICE, f.addr, &HedgedEscrowMsg::DepositPremium).unwrap();
        f.world.advance_blocks(5);
        f.world.call(ALICE, f.addr, &HedgedEscrowMsg::Settle).unwrap();
        assert!(f.world.call(ALICE, f.addr, &HedgedEscrowMsg::Settle).is_err());
    }

    #[test]
    fn double_premium_deposit_is_rejected() {
        let mut f = setup();
        f.world.call(ALICE, f.addr, &HedgedEscrowMsg::DepositPremium).unwrap();
        assert!(f.world.call(ALICE, f.addr, &HedgedEscrowMsg::DepositPremium).is_err());
    }

    #[test]
    fn accessors_report_times() {
        let mut f = setup();
        f.world.call(ALICE, f.addr, &HedgedEscrowMsg::DepositPremium).unwrap();
        f.world.advance_blocks(2);
        f.world.call(BOB, f.addr, &HedgedEscrowMsg::EscrowPrincipal).unwrap();
        f.world.advance_blocks(1);
        let secret = f.secret.clone();
        f.world.call(ALICE, f.addr, &HedgedEscrowMsg::Redeem { secret }).unwrap();
        let c = contract(&f);
        assert_eq!(c.escrowed_at(), Some(Time(2)));
        assert_eq!(c.principal_settled_at(), Some(Time(3)));
        assert_eq!(c.params().escrower, BOB);
    }
}
