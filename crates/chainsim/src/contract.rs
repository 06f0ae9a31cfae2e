//! The smart-contract abstraction and its execution environment.

use std::any::Any;
use std::fmt;

use cryptosim::KeyDirectory;

use crate::amount::Amount;
use crate::caches::SimCaches;
use crate::error::ContractError;
use crate::gas::GasSchedule;
use crate::ids::{AssetId, ChainId, ContractId, PartyId};
use crate::ledger::{AccountRef, Ledger};
use crate::spec::StateSpec;
use crate::time::Time;

/// Marker trait for typed contract messages.
///
/// Any `'static` type that is `Clone + Debug + Send` can be used as a
/// message; the blanket implementation below makes that automatic. Contracts
/// downcast the received `&dyn Any` to their own message type and reject
/// anything else with [`ContractError::UnsupportedMessage`].
///
/// Messages must be cloneable because chains with a non-zero finality depth
/// record the calls of every speculative round: a
/// [`ReorgEvent`](crate::ReorgEvent) rewinds those rounds and re-delivers
/// the recorded calls, which requires an owned copy of each message.
pub trait ContractMessage: Any + fmt::Debug + Send {
    /// Upcasts the message to [`Any`] for downcasting by contracts.
    fn as_any(&self) -> &dyn Any;

    /// Clones the message into a fresh box (used by the speculative-round
    /// call record that reorg injection replays).
    fn clone_message(&self) -> Box<dyn ContractMessage>;
}

impl<T: Any + Clone + fmt::Debug + Send> ContractMessage for T {
    fn as_any(&self) -> &dyn Any {
        self
    }

    fn clone_message(&self) -> Box<dyn ContractMessage> {
        Box::new(self.clone())
    }
}

/// A blockchain-resident program.
///
/// Contracts are *passive, public, deterministic and trusted* (§3.1 of the
/// paper): they hold escrowed assets and premiums, and transfer them when
/// called with well-formed messages before the relevant deadlines. A
/// contract can only touch the ledger of the chain it resides on, which the
/// [`CallEnv`] enforces by construction.
pub trait Contract: fmt::Debug + Send {
    /// A short, stable name for the contract type (used in diagnostics).
    fn type_name(&self) -> &'static str;

    /// Clones the contract into a fresh box, preserving its full state.
    ///
    /// Calls keep a pre-call clone to roll back to, and snapshots
    /// ([`crate::World::snapshot`]) clone every live contract, so every
    /// contract must be cloneable; concrete contracts derive [`Clone`] and
    /// implement this as `Box::new(self.clone())`.
    fn clone_box(&self) -> Box<dyn Contract>;

    /// Handles a call from `env.caller()` carrying the typed message `msg`.
    ///
    /// # Errors
    ///
    /// Implementations return a [`ContractError`] when the message is
    /// malformed, unauthorised, too early, too late, or inconsistent with
    /// the contract's current state. Calls are *transactional*: when
    /// `handle` returns an error, [`crate::Blockchain::call`] rolls back
    /// every ledger operation the implementation performed before failing
    /// and restores the contract's pre-call state, so a failed call
    /// can never half-apply. Gas consumed up to the failure stays charged,
    /// mirroring real chains.
    fn handle(&mut self, env: &mut CallEnv<'_>, msg: &dyn Any) -> Result<(), ContractError>;

    /// Upcasts to [`Any`] so observers can downcast to the concrete type and
    /// read its public state.
    fn as_any(&self) -> &dyn Any;

    /// The contract's static custody specification, if it declares one.
    ///
    /// Production contract families return a [`StateSpec`] describing their
    /// states, depositable funds and disposition edges so the `staticcheck`
    /// analyzer can prove disposition-completeness without executing calls;
    /// see the `spec` module docs (exported via [`StateSpec`]) for
    /// the obligations a spec carries — custody fidelity, window fidelity
    /// and composite-state completeness. The default is `None`, which the
    /// analyzer treats as "opted out" (test doubles, fixtures).
    fn state_spec(&self) -> Option<StateSpec> {
        None
    }
}

impl Clone for Box<dyn Contract> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// The execution environment handed to a contract during a call.
///
/// The environment scopes every ledger mutation to the contract's own chain
/// and account: a contract can pull funds from the *caller* (who authorised
/// the movement by making the call), pay out of its own holdings, and move
/// funds it holds into another contract on the same chain (used by the
/// premium-bootstrapping protocol). It cannot touch arbitrary third-party
/// balances.
pub struct CallEnv<'a> {
    chain: ChainId,
    contract: ContractId,
    caller: PartyId,
    now: Time,
    ledger: &'a mut Ledger,
    directory: &'a KeyDirectory,
    caches: &'a mut SimCaches,
    gas_used: u64,
    /// The chain's undo journal: this call appends its applied ledger
    /// transfers, in execution order, past `undo_floor`. A failed `handle`
    /// unwinds them, so multi-op contract steps commit or roll back
    /// atomically; inside a finality window committed entries stay for a
    /// reorg.
    undo: &'a mut Vec<UndoOp>,
    /// Journal length at call entry: where a failed call unwinds to.
    undo_floor: usize,
}

/// One applied ledger transfer or mint (`from: None`), with enough context
/// to reverse it.
///
/// `from_before`/`to_before` record the touched balances before the
/// operation; the rollback assertions (debug builds, or release with the
/// `strict-rollback` feature) verify each reversed operation restores them
/// exactly.
#[derive(Clone, Copy, Debug)]
pub(crate) struct UndoOp {
    from: Option<AccountRef>,
    to: AccountRef,
    asset: AssetId,
    amount: Amount,
    // Only read by the cfg-gated rollback audit below; a plain release
    // build (no debug assertions, no strict-rollback) never touches them.
    #[cfg_attr(not(any(debug_assertions, feature = "strict-rollback")), allow(dead_code))]
    from_before: Amount,
    #[cfg_attr(not(any(debug_assertions, feature = "strict-rollback")), allow(dead_code))]
    to_before: Amount,
}

impl UndoOp {
    /// Journals a mint of `amount` into `to`, taken before it is applied.
    pub(crate) fn mint(ledger: &Ledger, to: AccountRef, asset: AssetId, amount: Amount) -> Self {
        let to_before = ledger.balance(to, asset);
        UndoOp { from: None, to, asset, amount, from_before: Amount::ZERO, to_before }
    }
}

/// Reverse-applies the `journal` entries past `mark`, newest first, and
/// truncates the journal to `mark`: the one rollback routine behind failed
/// calls and, round by round, reorgs.
/// A transfer is reversed by the opposite transfer and a mint by burning
/// what it created.
pub(crate) fn unwind(ledger: &mut Ledger, journal: &mut Vec<UndoOp>, mark: usize) {
    for op in journal.drain(mark..).rev() {
        match op.from {
            Some(from) => ledger
                .transfer(op.to, from, op.asset, op.amount)
                .expect("reversing an applied transfer cannot fail"),
            None => ledger.burn(op.to, op.asset, op.amount),
        }
        #[cfg(any(debug_assertions, feature = "strict-rollback"))]
        {
            if let Some(from) = op.from {
                assert_eq!(
                    ledger.balance(from, op.asset),
                    op.from_before,
                    "rollback must restore the debited balance exactly"
                );
            }
            assert_eq!(
                ledger.balance(op.to, op.asset),
                op.to_before,
                "rollback must restore the credited balance exactly"
            );
        }
    }
}

impl<'a> CallEnv<'a> {
    /// Creates a call environment that journals into `undo`. Used by
    /// [`crate::Blockchain`]; protocol code never constructs one directly.
    ///
    /// The call's base gas cost ([`GasSchedule::call_base`]) is charged at
    /// construction: dispatching a contract step is work in itself.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        chain: ChainId,
        contract: ContractId,
        caller: PartyId,
        now: Time,
        ledger: &'a mut Ledger,
        undo: &'a mut Vec<UndoOp>,
        directory: &'a KeyDirectory,
        caches: &'a mut SimCaches,
    ) -> Self {
        let undo_floor = undo.len();
        CallEnv {
            chain,
            contract,
            caller,
            now,
            ledger,
            directory,
            caches,
            gas_used: GasSchedule::DEFAULT.call_base,
            undo,
            undo_floor,
        }
    }

    /// Rolls back every ledger operation this call has applied so far. Used
    /// by [`crate::Blockchain::call`] when `handle` fails; gas already
    /// metered is deliberately left charged.
    pub(crate) fn rollback_all(self) {
        unwind(self.ledger, self.undo, self.undo_floor);
    }

    /// The public-key directory used to verify signatures on hashkey paths.
    pub fn directory(&self) -> &KeyDirectory {
        self.directory
    }

    /// The world's memoisation store (see [`SimCaches`]).
    ///
    /// Contracts may use it to skip recomputing work whose result is a pure
    /// function of already-validated inputs (e.g. signature-chain
    /// verification). Entries live for the lifetime of the [`crate::World`],
    /// across [`crate::World::reset`], snapshot restores and every protocol
    /// the world runs, so an entry must be keyed by everything its value
    /// depends on and affect *performance only* — never outcomes.
    pub fn caches(&mut self) -> &mut SimCaches {
        self.caches
    }

    /// The chain this contract resides on.
    pub fn chain(&self) -> ChainId {
        self.chain
    }

    /// The party making the call.
    pub fn caller(&self) -> PartyId {
        self.caller
    }

    /// The current block height.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Returns an error if the deadline has already been reached.
    ///
    /// # Errors
    ///
    /// Returns [`ContractError::TooLate`] when `now >= deadline`.
    pub fn ensure_before(&self, deadline: Time) -> Result<(), ContractError> {
        if self.now.has_reached(deadline) {
            Err(ContractError::TooLate { deadline, now: self.now })
        } else {
            Ok(())
        }
    }

    /// Returns an error if `not_before` has not yet been reached.
    ///
    /// # Errors
    ///
    /// Returns [`ContractError::TooEarly`] when `now < not_before`.
    pub fn ensure_reached(&self, not_before: Time) -> Result<(), ContractError> {
        if self.now.has_reached(not_before) {
            Ok(())
        } else {
            Err(ContractError::TooEarly { not_before, now: self.now })
        }
    }

    /// The gas this call has burned so far (base dispatch cost included).
    ///
    /// Gas is a pure function of the call's semantics — ledger operations
    /// performed and [`CallEnv::charge_note`] charges — and is independent
    /// of threading and wall-clock time.
    pub fn gas_used(&self) -> u64 {
        self.gas_used
    }

    /// Moves `amount` of `asset` from the caller into this contract.
    ///
    /// The caller authorised the movement by making the call, mirroring how
    /// value is attached to a contract call on real chains.
    ///
    /// # Errors
    ///
    /// Propagates ledger errors (insufficient balance, zero transfer).
    pub fn debit_caller(&mut self, asset: AssetId, amount: Amount) -> Result<(), ContractError> {
        self.transfer_internal(
            AccountRef::Party(self.caller),
            AccountRef::Contract(self.contract),
            asset,
            amount,
        )
    }

    /// Pays `amount` of `asset` from this contract's holdings to `to`.
    ///
    /// # Errors
    ///
    /// Propagates ledger errors (insufficient contract balance).
    pub fn pay_out(
        &mut self,
        to: PartyId,
        asset: AssetId,
        amount: Amount,
    ) -> Result<(), ContractError> {
        self.transfer_internal(
            AccountRef::Contract(self.contract),
            AccountRef::Party(to),
            asset,
            amount,
        )
    }

    /// Moves `amount` of `asset` from this contract into another contract on
    /// the same chain.
    ///
    /// Used by the bootstrapping protocol, where a redeemed "principal" is in
    /// fact a premium destined for the next-round escrow contract.
    ///
    /// # Errors
    ///
    /// Propagates ledger errors (insufficient contract balance).
    pub fn pay_into_contract(
        &mut self,
        to: ContractId,
        asset: AssetId,
        amount: Amount,
    ) -> Result<(), ContractError> {
        self.transfer_internal(
            AccountRef::Contract(self.contract),
            AccountRef::Contract(to),
            asset,
            amount,
        )
    }

    /// Charges [`GasSchedule::note`], the cost of the log entry a chain
    /// meters for a contract outcome. Contracts charge it where a real
    /// contract would log one — a redemption, a refund, a premium payout, a
    /// presented hashkey — though the simulator keeps no log: contract
    /// state is public, and observers read it instead.
    pub fn charge_note(&mut self) {
        self.gas_used += GasSchedule::DEFAULT.note;
    }

    fn transfer_internal(
        &mut self,
        from: AccountRef,
        to: AccountRef,
        asset: AssetId,
        amount: Amount,
    ) -> Result<(), ContractError> {
        if amount.is_zero() {
            // Zero-value escrow slots are legal no-ops at the protocol layer
            // (and free: no ledger operation is executed).
            return Ok(());
        }
        let from_before = self.ledger.balance(from, asset);
        let to_before = self.ledger.balance(to, asset);
        self.ledger.transfer(from, to, asset, amount)?;
        self.undo.push(UndoOp { from: Some(from), to, asset, amount, from_before, to_before });
        self.gas_used += GasSchedule::DEFAULT.ledger_op;
        Ok(())
    }
}

impl fmt::Debug for CallEnv<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CallEnv")
            .field("chain", &self.chain)
            .field("contract", &self.contract)
            .field("caller", &self.caller)
            .field("now", &self.now)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_directory() -> &'static KeyDirectory {
        use std::sync::OnceLock;
        static DIR: OnceLock<KeyDirectory> = OnceLock::new();
        DIR.get_or_init(KeyDirectory::new)
    }

    fn env_fixture<'a>(
        ledger: &'a mut Ledger,
        caches: &'a mut SimCaches,
        now: Time,
    ) -> CallEnv<'a> {
        CallEnv::new(
            ChainId(0),
            ContractId(7),
            PartyId(1),
            now,
            ledger,
            // A fresh journal that outlives the env; the leak is per test.
            Box::leak(Box::default()),
            empty_directory(),
            caches,
        )
    }

    #[test]
    fn debit_and_pay_out_move_funds_and_log_events() {
        let mut ledger = Ledger::new();
        let mut caches = SimCaches::new();
        ledger.mint(AccountRef::Party(PartyId(1)), AssetId(0), Amount::new(10));
        {
            let mut env = env_fixture(&mut ledger, &mut caches, Time(2));
            env.debit_caller(AssetId(0), Amount::new(4)).unwrap();
            env.pay_out(PartyId(2), AssetId(0), Amount::new(1)).unwrap();
            env.charge_note();
            let schedule = GasSchedule::DEFAULT;
            assert_eq!(env.gas_used(), schedule.call_base + 2 * schedule.ledger_op + schedule.note);
        }
        assert_eq!(ledger.balance(AccountRef::Contract(ContractId(7)), AssetId(0)), Amount::new(3));
        assert_eq!(ledger.balance(AccountRef::Party(PartyId(1)), AssetId(0)), Amount::new(6));
        assert_eq!(ledger.balance(AccountRef::Party(PartyId(2)), AssetId(0)), Amount::new(1));
    }

    #[test]
    fn zero_transfers_are_noops() {
        let mut ledger = Ledger::new();
        let mut caches = SimCaches::new();
        let mut env = env_fixture(&mut ledger, &mut caches, Time(0));
        env.debit_caller(AssetId(0), Amount::ZERO).unwrap();
        env.pay_out(PartyId(2), AssetId(0), Amount::ZERO).unwrap();
        assert_eq!(env.gas_used(), GasSchedule::DEFAULT.call_base, "no ledger op ran");
    }

    #[test]
    fn deadline_helpers() {
        let mut ledger = Ledger::new();
        let mut caches = SimCaches::new();
        let env = env_fixture(&mut ledger, &mut caches, Time(5));
        assert!(env.ensure_before(Time(6)).is_ok());
        assert!(matches!(env.ensure_before(Time(5)), Err(ContractError::TooLate { .. })));
        assert!(env.ensure_reached(Time(5)).is_ok());
        assert!(matches!(env.ensure_reached(Time(6)), Err(ContractError::TooEarly { .. })));
    }

    #[test]
    fn pay_into_contract_moves_between_contracts() {
        let mut ledger = Ledger::new();
        let mut caches = SimCaches::new();
        ledger.mint(AccountRef::Contract(ContractId(7)), AssetId(0), Amount::new(3));
        let mut env = env_fixture(&mut ledger, &mut caches, Time(0));
        env.pay_into_contract(ContractId(9), AssetId(0), Amount::new(3)).unwrap();
        assert_eq!(ledger.balance(AccountRef::Contract(ContractId(9)), AssetId(0)), Amount::new(3));
    }

    #[test]
    fn debit_fails_on_insufficient_funds() {
        let mut ledger = Ledger::new();
        let mut caches = SimCaches::new();
        let mut env = env_fixture(&mut ledger, &mut caches, Time(0));
        assert!(matches!(
            env.debit_caller(AssetId(0), Amount::new(1)),
            Err(ContractError::Ledger(_))
        ));
    }

    #[test]
    fn env_accessors_and_debug() {
        let mut ledger = Ledger::new();
        let mut caches = SimCaches::new();
        let env = env_fixture(&mut ledger, &mut caches, Time(3));
        assert_eq!(env.chain(), ChainId(0));
        assert_eq!(env.caller(), PartyId(1));
        assert_eq!(env.now(), Time(3));
        assert!(format!("{env:?}").contains("CallEnv"));
    }

    #[test]
    fn contract_message_blanket_impl() {
        #[derive(Clone, Debug)]
        struct Ping;
        let msg: Box<dyn ContractMessage> = Box::new(Ping);
        // Call through the trait object (not a `Box` blanket impl) so the
        // concrete type seen by `Any` is `Ping`.
        assert!(msg.as_ref().as_any().downcast_ref::<Ping>().is_some());
        // Cloning through the trait object preserves the concrete type.
        let cloned = msg.as_ref().clone_message();
        assert!(cloned.as_ref().as_any().downcast_ref::<Ping>().is_some());
    }
}
