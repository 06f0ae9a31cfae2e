//! The classic hashed-timelock escrow (base two-party swap, §5.1).

use std::any::Any;

use chainsim::{
    Amount, AssetId, CallEnv, Contract, ContractError, Disposition, PartyId, StateMachine,
    StateSpec, Time, TimeWindow, TransitionSpec,
};
use cryptosim::{Hashlock, Secret};
use serde::{Deserialize, Serialize};

/// Lifecycle of an [`HtlcEscrow`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum HtlcState {
    /// Published but not yet funded.
    Created,
    /// The principal has been escrowed by the sender.
    Escrowed,
    /// The recipient presented the secret and received the principal.
    Redeemed,
    /// The timelock expired and the principal returned to the sender.
    Refunded,
}

/// Messages accepted by an [`HtlcEscrow`].
#[derive(Clone, Debug)]
pub enum HtlcMsg {
    /// The sender escrows the principal.
    Escrow,
    /// The recipient redeems the principal by revealing the secret.
    Redeem {
        /// The hashlock preimage.
        secret: Secret,
    },
    /// Anyone triggers the refund after the timelock has expired.
    Refund,
}

/// A hashed-timelock escrow contract.
///
/// The sender escrows `amount` of `asset`; if the recipient presents the
/// hashlock preimage before `timelock`, the asset is transferred to the
/// recipient (and the secret becomes publicly visible on chain); otherwise
/// the asset is refunded to the sender after the timelock.
///
/// This is the §5.1 building block with **no** sore-loser protection: a
/// counterparty that walks away costs the escrower nothing but time, which
/// is exactly the vulnerability the hedged contracts remove.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HtlcEscrow {
    sender: PartyId,
    recipient: PartyId,
    asset: AssetId,
    amount: Amount,
    hashlock: Hashlock,
    timelock: Time,
    state: HtlcState,
    escrowed_at: Option<Time>,
    settled_at: Option<Time>,
    revealed_secret: Option<Secret>,
}

impl HtlcEscrow {
    /// Creates a new, unfunded HTLC escrow.
    pub fn new(
        sender: PartyId,
        recipient: PartyId,
        asset: AssetId,
        amount: Amount,
        hashlock: Hashlock,
        timelock: Time,
    ) -> Self {
        HtlcEscrow {
            sender,
            recipient,
            asset,
            amount,
            hashlock,
            timelock,
            state: HtlcState::Created,
            escrowed_at: None,
            settled_at: None,
            revealed_secret: None,
        }
    }

    /// The current lifecycle state.
    pub fn state(&self) -> HtlcState {
        self.state
    }

    /// The secret revealed by a successful redemption, if any.
    ///
    /// Contract state is public, so a counterparty observing the chain
    /// learns the secret from here — this is how the secret propagates from
    /// the banana chain back to the apricot chain in the base swap.
    pub fn revealed_secret(&self) -> Option<&Secret> {
        self.revealed_secret.as_ref()
    }

    /// The height at which the principal was escrowed, if it has been.
    pub fn escrowed_at(&self) -> Option<Time> {
        self.escrowed_at
    }

    /// The height at which the escrow was redeemed or refunded, if it has been.
    pub fn settled_at(&self) -> Option<Time> {
        self.settled_at
    }

    /// The escrow timelock.
    pub fn timelock(&self) -> Time {
        self.timelock
    }

    /// The escrowed asset and amount.
    pub fn principal(&self) -> (AssetId, Amount) {
        (self.asset, self.amount)
    }

    fn escrow(&mut self, env: &mut CallEnv<'_>) -> Result<(), ContractError> {
        if env.caller() != self.sender {
            return Err(ContractError::Unauthorised { caller: env.caller() });
        }
        if self.state != HtlcState::Created {
            return Err(ContractError::invalid_state("principal already escrowed or settled"));
        }
        env.ensure_before(self.timelock)?;
        env.debit_caller(self.asset, self.amount)?;
        self.state = HtlcState::Escrowed;
        self.escrowed_at = Some(env.now());
        Ok(())
    }

    fn redeem(&mut self, env: &mut CallEnv<'_>, secret: &Secret) -> Result<(), ContractError> {
        if env.caller() != self.recipient {
            return Err(ContractError::Unauthorised { caller: env.caller() });
        }
        if self.state != HtlcState::Escrowed {
            return Err(ContractError::invalid_state("nothing escrowed to redeem"));
        }
        env.ensure_before(self.timelock)?;
        if !self.hashlock.matches(secret) {
            return Err(ContractError::HashlockMismatch);
        }
        env.pay_out(self.recipient, self.asset, self.amount)?;
        self.state = HtlcState::Redeemed;
        self.settled_at = Some(env.now());
        self.revealed_secret = Some(secret.clone());
        env.charge_note();
        Ok(())
    }

    fn refund(&mut self, env: &mut CallEnv<'_>) -> Result<(), ContractError> {
        if self.state != HtlcState::Escrowed {
            return Err(ContractError::invalid_state("nothing escrowed to refund"));
        }
        env.ensure_reached(self.timelock)?;
        env.pay_out(self.sender, self.asset, self.amount)?;
        self.state = HtlcState::Refunded;
        self.settled_at = Some(env.now());
        env.charge_note();
        Ok(())
    }
}

impl Contract for HtlcEscrow {
    fn type_name(&self) -> &'static str {
        "HtlcEscrow"
    }

    fn clone_box(&self) -> Box<dyn Contract> {
        Box::new(self.clone())
    }

    fn handle(&mut self, env: &mut CallEnv<'_>, msg: &dyn Any) -> Result<(), ContractError> {
        let msg = msg.downcast_ref::<HtlcMsg>().ok_or(ContractError::UnsupportedMessage)?;
        match msg {
            HtlcMsg::Escrow => self.escrow(env),
            HtlcMsg::Redeem { secret } => self.redeem(env, secret),
            HtlcMsg::Refund => self.refund(env),
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    // Custody spec. One machine, one fund: the principal is escrowed before
    // the timelock and leaves custody either by redemption (strictly before
    // the timelock) or by refund (from the timelock on) — the windows
    // mirror the `ensure_before`/`ensure_reached` guards above exactly.
    fn state_spec(&self) -> Option<StateSpec> {
        Some(
            StateSpec::new(self.type_name()).machine(
                StateMachine::new("principal", "Created")
                    .fund("principal")
                    .transition(
                        TransitionSpec::new(
                            "Escrow",
                            "Created",
                            "Escrowed",
                            TimeWindow::before(self.timelock),
                        )
                        .deposits("principal"),
                    )
                    .transition(
                        TransitionSpec::new(
                            "Redeem",
                            "Escrowed",
                            "Redeemed",
                            TimeWindow::before(self.timelock),
                        )
                        .releases("principal", Disposition::Redeem),
                    )
                    .transition(
                        TransitionSpec::new(
                            "Refund",
                            "Escrowed",
                            "Refunded",
                            TimeWindow::from(self.timelock),
                        )
                        .releases("principal", Disposition::Refund),
                    ),
            ),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chainsim::{AccountRef, ChainError, ContractAddr, World};

    const ALICE: PartyId = PartyId(0);
    const BOB: PartyId = PartyId(1);

    struct Fixture {
        world: World,
        addr: ContractAddr,
        token: AssetId,
        secret: Secret,
    }

    fn setup(timelock: Time) -> Fixture {
        let mut world = World::new(1);
        let chain = world.add_chain("apricot");
        let token = world.register_asset("apricot-token");
        world.chain_mut(chain).mint(ALICE, token, Amount::new(100));
        let secret = Secret::from_seed(42);
        let escrow =
            HtlcEscrow::new(ALICE, BOB, token, Amount::new(100), secret.hashlock(), timelock);
        let addr = world.publish(chain, Box::new(escrow));
        Fixture { world, addr, token, secret }
    }

    fn state(f: &Fixture) -> HtlcState {
        f.world.chain(f.addr.chain).contract_as::<HtlcEscrow>(f.addr.contract).unwrap().state()
    }

    #[test]
    fn happy_path_escrow_then_redeem() {
        let mut f = setup(Time(10));
        f.world.call(ALICE, f.addr, &HtlcMsg::Escrow).unwrap();
        assert_eq!(state(&f), HtlcState::Escrowed);
        let secret = f.secret.clone();
        f.world.call(BOB, f.addr, &HtlcMsg::Redeem { secret }).unwrap();
        assert_eq!(state(&f), HtlcState::Redeemed);
        let chain = f.world.chain(f.addr.chain);
        assert_eq!(chain.balance(AccountRef::Party(BOB), f.token), Amount::new(100));
        assert_eq!(chain.balance(AccountRef::Contract(f.addr.contract), f.token), Amount::ZERO);
        // The secret is now public contract state.
        assert!(chain
            .contract_as::<HtlcEscrow>(f.addr.contract)
            .unwrap()
            .revealed_secret()
            .is_some());
    }

    #[test]
    fn refund_after_timelock() {
        let mut f = setup(Time(3));
        f.world.call(ALICE, f.addr, &HtlcMsg::Escrow).unwrap();
        // Too early to refund.
        assert!(f.world.call(BOB, f.addr, &HtlcMsg::Refund).is_err());
        f.world.advance_blocks(3);
        f.world.call(BOB, f.addr, &HtlcMsg::Refund).unwrap();
        assert_eq!(state(&f), HtlcState::Refunded);
        assert_eq!(
            f.world.chain(f.addr.chain).balance(AccountRef::Party(ALICE), f.token),
            Amount::new(100)
        );
    }

    #[test]
    fn redeem_rejected_after_timelock() {
        let mut f = setup(Time(2));
        f.world.call(ALICE, f.addr, &HtlcMsg::Escrow).unwrap();
        f.world.advance_blocks(2);
        let secret = f.secret.clone();
        let err = f.world.call(BOB, f.addr, &HtlcMsg::Redeem { secret }).unwrap_err();
        assert!(matches!(err, ChainError::ContractFailed { .. }));
        assert_eq!(state(&f), HtlcState::Escrowed);
    }

    #[test]
    fn redeem_rejected_with_wrong_secret_or_caller() {
        let mut f = setup(Time(10));
        f.world.call(ALICE, f.addr, &HtlcMsg::Escrow).unwrap();
        let wrong = Secret::from_seed(1);
        assert!(f.world.call(BOB, f.addr, &HtlcMsg::Redeem { secret: wrong }).is_err());
        let secret = f.secret.clone();
        assert!(f.world.call(ALICE, f.addr, &HtlcMsg::Redeem { secret }).is_err());
        assert_eq!(state(&f), HtlcState::Escrowed);
    }

    #[test]
    fn escrow_requires_sender_and_single_use() {
        let mut f = setup(Time(10));
        assert!(f.world.call(BOB, f.addr, &HtlcMsg::Escrow).is_err());
        f.world.call(ALICE, f.addr, &HtlcMsg::Escrow).unwrap();
        assert!(f.world.call(ALICE, f.addr, &HtlcMsg::Escrow).is_err());
    }

    #[test]
    fn escrow_rejected_after_timelock() {
        let mut f = setup(Time(2));
        f.world.advance_blocks(2);
        assert!(f.world.call(ALICE, f.addr, &HtlcMsg::Escrow).is_err());
        assert_eq!(state(&f), HtlcState::Created);
    }

    #[test]
    fn refund_requires_escrowed_state() {
        let mut f = setup(Time(1));
        f.world.advance_blocks(2);
        assert!(f.world.call(ALICE, f.addr, &HtlcMsg::Refund).is_err());
    }

    #[test]
    fn accessors_report_lifecycle() {
        let mut f = setup(Time(10));
        f.world.call(ALICE, f.addr, &HtlcMsg::Escrow).unwrap();
        let secret = f.secret.clone();
        f.world.advance_blocks(2);
        f.world.call(BOB, f.addr, &HtlcMsg::Redeem { secret }).unwrap();
        let escrow =
            f.world.chain(f.addr.chain).contract_as::<HtlcEscrow>(f.addr.contract).unwrap();
        assert_eq!(escrow.escrowed_at(), Some(Time(0)));
        assert_eq!(escrow.settled_at(), Some(Time(2)));
        assert_eq!(escrow.timelock(), Time(10));
        assert_eq!(escrow.principal(), (f.token, Amount::new(100)));
        assert_eq!(escrow.state(), HtlcState::Redeemed);
    }

    #[test]
    fn unsupported_message_is_rejected() {
        let mut f = setup(Time(10));
        #[derive(Clone, Debug)]
        struct Bogus;
        assert!(f.world.call(ALICE, f.addr, &Bogus).is_err());
    }
}
